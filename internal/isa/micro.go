package isa

// Micro is a predecoded instruction: the original Inst together with
// every per-instruction decision the compiled tier would otherwise make
// on the hot path — the kind, the condition-code / strictness / memory
// attributes that live behind the opcode-info table, and the branch
// condition. The superinstruction handlers switch on the kind; every
// op they refuse runs the original Inst through the opcode switch.
//
// A Micro carries no execution state: predecode is a pure function of
// the instruction, so a predecoded program can be shared read-only by
// every processor of a machine.
type Micro struct {
	Inst             // the original instruction (trap payloads, errors)
	Kind   MicroKind // flat handler index
	SetsCC bool
	Strict bool // traps if an operand is a future (LSB set)
	Store  bool // memory kind: store rather than load
	Cond   Cond // branch kind: the encoded condition
	Flavor MemFlavor
}

// MicroKind is the kind of a predecoded instruction: what the
// superinstruction handlers switch on and the "isa" counter group
// counts. Compute opcodes that differ only in condition-code or
// strictness behavior (add/addcc/rawadd) share a kind and are told
// apart by the predecoded SetsCC/Strict flags.
type MicroKind uint8

const (
	MNop MicroKind = iota
	MAdd
	MSub
	MAnd
	MOr
	MXor
	MSll
	MSrl
	MSra
	MMul
	MDiv
	MMod
	MTagCmp
	MMovI
	MMem // flavored load/store (Store + Flavor select the behavior)
	MBranch
	MJmpl
	MIncFP
	MDecFP
	MRdFP
	MStFP
	MRdPSR
	MWrPSR
	MFlush
	MLdio
	MStio
	MTrap
	MHalt
	MInvalid // no defined opcode maps here (undefined opcodes decode as nops)

	numMicroKinds // sentinel; must remain final
)

// NumMicroKinds sizes a per-kind table.
const NumMicroKinds = int(numMicroKinds)

// microKindNames index MicroKind; used by the "isa" counter group and
// telemetry output.
var microKindNames = [NumMicroKinds]string{
	MNop: "nop", MAdd: "add", MSub: "sub", MAnd: "and", MOr: "or",
	MXor: "xor", MSll: "sll", MSrl: "srl", MSra: "sra", MMul: "mul",
	MDiv: "div", MMod: "mod", MTagCmp: "tagcmp", MMovI: "movi",
	MMem: "mem", MBranch: "branch", MJmpl: "jmpl", MIncFP: "incfp",
	MDecFP: "decfp", MRdFP: "rdfp", MStFP: "stfp", MRdPSR: "rdpsr",
	MWrPSR: "wrpsr", MFlush: "flush", MLdio: "ldio", MStio: "stio",
	MTrap: "trap", MHalt: "halt", MInvalid: "invalid",
}

// String names the kind ("add", "mem", "branch", ...).
func (k MicroKind) String() string {
	if int(k) < len(microKindNames) {
		return microKindNames[k]
	}
	return "unknown"
}

// opKinds maps every opcode to its kind — the reference interpreter's
// path to the same per-kind execution counters the compiled tier reads
// off the Micro directly. Kind is a function of the opcode alone
// (PredecodeInst derives it from Op), so the table is exact.
var opKinds = func() (t [256]MicroKind) {
	for op := 0; op < 256; op++ {
		t[op] = PredecodeInst(Inst{Op: Opcode(op)}).Kind
	}
	return t
}()

// KindOf returns the handler kind of an opcode.
func KindOf(op Opcode) MicroKind { return opKinds[op] }

// computeKinds maps the compute opcodes onto their shared handler
// kinds.
var computeKinds = map[Opcode]MicroKind{
	OpAdd: MAdd, OpAddCC: MAdd, OpRawAdd: MAdd,
	OpSub: MSub, OpSubCC: MSub, OpRawSub: MSub,
	OpAnd: MAnd, OpAndCC: MAnd, OpRawAnd: MAnd,
	OpOr: MOr, OpOrCC: MOr,
	OpXor: MXor, OpXorCC: MXor,
	OpSll: MSll, OpSrl: MSrl, OpSra: MSra,
	OpMul: MMul, OpDiv: MDiv, OpMod: MMod,
	OpTagCmp: MTagCmp, OpMovI: MMovI,
}

// frameKinds maps the FP/PSR opcodes onto their handler kinds.
var frameKinds = map[Opcode]MicroKind{
	OpIncFP: MIncFP, OpDecFP: MDecFP, OpRdFP: MRdFP,
	OpStFP: MStFP, OpRdPSR: MRdPSR, OpWrPSR: MWrPSR,
}

// PredecodeInst predecodes one instruction.
func PredecodeInst(in Inst) Micro {
	u := Micro{
		Inst:   in,
		Kind:   MInvalid,
		SetsCC: in.Op.SetsCC(),
		Strict: in.Op.Strict(),
		Cond:   in.Op.Cond(),
		Flavor: in.Op.Flavor(),
	}
	switch in.Op.Class() {
	case ClassNop:
		// Class() maps undefined opcodes to ClassNop, and the reference
		// interpreter consequently executes them as nops; mirror that so
		// the two paths agree on every representable instruction.
		u.Kind = MNop
	case ClassCompute:
		if k, ok := computeKinds[in.Op]; ok {
			u.Kind = k
		}
	case ClassLoad:
		u.Kind = MMem
	case ClassStore:
		u.Kind = MMem
		u.Store = true
	case ClassBranch:
		u.Kind = MBranch
	case ClassJmpl:
		u.Kind = MJmpl
	case ClassFrame:
		if k, ok := frameKinds[in.Op]; ok {
			u.Kind = k
		}
	case ClassCacheOp:
		u.Kind = MFlush
	case ClassIO:
		if in.Op == OpLdio {
			u.Kind = MLdio
		} else {
			u.Kind = MStio
		}
	case ClassTrap:
		u.Kind = MTrap
	case ClassHalt:
		u.Kind = MHalt
	}
	return u
}

// Predecode lowers the program's code to micro-op form. The result
// aliases nothing in p and is immutable by convention: every processor
// of a machine shares one predecoded image.
func (p *Program) Predecode() []Micro {
	out := make([]Micro, len(p.Code))
	for i, in := range p.Code {
		out[i] = PredecodeInst(in)
	}
	return out
}
