package isa

// Basic-block discovery over a predecoded program: the compiled
// tier's translation unit. A block is a maximal straight-line run of
// fusable micro-ops starting at an entry PC, optionally ending with a
// control transfer (branch/jmpl). The superinstruction executor
// (internal/proc, compile.go) runs a whole block per dispatch with the
// per-instruction fetch and PC-bounds checks hoisted to block entry,
// falling back to the opcode switch at block exits, on any trap, and
// on anything the fuse classification excludes.
//
// Translation is profile-guided: every entry PC carries an execution
// counter, and a block is discovered only once the counter crosses the
// BlockSet's threshold, so short runs never pay translation. Blocks
// alias the shared predecoded image — translation writes only the
// side tables (lens, counts), never a Micro, so the image stays pure
// and shareable exactly as Predecode promises.

// FuseClass says whether a micro-op may live inside a fused block.
type FuseClass uint8

const (
	// FuseNever ends a block before the op: the op has side effects the
	// fused executor must not reorder against the machine loop (traps,
	// halts, I/O, cache management) or is an undefined opcode.
	FuseNever FuseClass = iota
	// FuseStep ops touch only the executing frame's registers, PSR, and
	// frame pointer — fusable under every memory configuration.
	FuseStep
	// FuseMem is the flavored load/store: fusable only when the machine
	// proves memory accesses cannot involve the cache/network fabric
	// (the perfect-memory configuration).
	FuseMem
)

// fuseClasses classifies every MicroKind. MBranch and MJmpl are
// fusable but terminal (blockTerminal): they end the block after
// executing.
var fuseClasses = [NumMicroKinds]FuseClass{
	MNop: FuseStep, MAdd: FuseStep, MSub: FuseStep, MAnd: FuseStep,
	MOr: FuseStep, MXor: FuseStep, MSll: FuseStep, MSrl: FuseStep,
	MSra: FuseStep, MMul: FuseStep, MDiv: FuseStep, MMod: FuseStep,
	MTagCmp: FuseStep, MMovI: FuseStep, MBranch: FuseStep,
	MJmpl: FuseStep, MIncFP: FuseStep, MDecFP: FuseStep,
	MRdFP: FuseStep, MStFP: FuseStep, MRdPSR: FuseStep,
	MWrPSR: FuseStep,
	MMem:   FuseMem,
	// MFlush, MLdio, MStio, MTrap, MHalt, MInvalid: FuseNever (zero).
}

// blockTerminal reports whether the op ends a block after executing.
func blockTerminal(k MicroKind) bool { return k == MBranch || k == MJmpl }

// MaxBlockLen caps a fused block. Long enough that real basic blocks
// (compiler output rarely exceeds a few dozen straight-line ops) fuse
// whole; short enough that the executor's budget accounting stays
// fine-grained.
const MaxBlockLen = 96

// BlockSet is one machine's translation state over a shared predecoded
// image: per-entry-PC profile counters and the discovered block
// lengths. The zero-allocation contract of the steady state holds
// because both side tables are sized at construction — translation
// only writes them.
//
// Mutability contract: Enter (the only mutating method) may be called
// from exactly one goroutine at a time. A machine's nodes share one
// BlockSet and its run loop steps them on a single goroutine, so this
// holds per machine; separate machines build separate sets.
type BlockSet struct {
	// Micro is the shared predecoded image the blocks alias.
	Micro []Micro
	// Threshold is how many times an entry PC must execute cold before
	// it is translated.
	Threshold uint32 `counter:"threshold"`

	// lens[pc] encodes the translation state of entry PC pc:
	// 0 = cold (not yet profiled past threshold), 1 = translated to "no
	// block" (the op at pc is unfusable here), n+1 = block of n ops.
	lens []uint8
	// counts[pc] profiles cold entries; unused once lens[pc] != 0.
	counts []uint32
	// memOK admits FuseMem ops (perfect-memory machines).
	memOK bool

	// Blocks and NoBlocks count translation outcomes: entry PCs that
	// became fused blocks vs. ones pinned per-op (telemetry).
	Blocks   uint64 `counter:"translated_blocks"`
	NoBlocks uint64 `counter:"unfusable_entries"`
}

// DefaultCompileThreshold is the profile-guided translation trigger:
// how many times an entry PC executes before its block is translated.
// Machines always use it; only tests pass another threshold.
const DefaultCompileThreshold = 8

// NewBlockSet builds the translation state for a predecoded image.
// threshold <= 0 selects DefaultCompileThreshold. memOK admits
// flavored loads/stores into blocks (perfect-memory machines only).
func NewBlockSet(micro []Micro, threshold int, memOK bool) *BlockSet {
	if threshold <= 0 {
		threshold = DefaultCompileThreshold
	}
	return &BlockSet{
		Micro:     micro,
		Threshold: uint32(threshold),
		lens:      make([]uint8, len(micro)),
		counts:    make([]uint32, len(micro)),
		memOK:     memOK,
	}
}

// Enter is the executor's per-dispatch entry: it returns the length of
// the translated block at pc, or 0 when execution must proceed per-op
// (cold PC still warming up, or an unfusable op). Cold entries are
// profiled; crossing the threshold translates. pc must be in range.
func (b *BlockSet) Enter(pc uint32) int {
	switch v := b.lens[pc]; {
	case v >= 2:
		return int(v - 1)
	case v == 1:
		return 0
	}
	c := b.counts[pc] + 1
	b.counts[pc] = c
	if c < b.Threshold {
		return 0
	}
	return b.translate(pc)
}

// Translated reports the block length at pc without profiling (tests
// and telemetry).
func (b *BlockSet) Translated(pc uint32) int {
	if v := b.lens[pc]; v >= 2 {
		return int(v - 1)
	}
	return 0
}

// translate discovers the straight-line block at pc and records its
// length. Discovery only reads the shared image and writes lens.
func (b *BlockSet) translate(pc uint32) int {
	n := 0
	for i := pc; i < uint32(len(b.Micro)) && n < MaxBlockLen; i++ {
		k := b.Micro[i].Kind
		cls := fuseClasses[k]
		if cls == FuseNever || (cls == FuseMem && !b.memOK) {
			break
		}
		n++
		if blockTerminal(k) {
			break
		}
	}
	if n == 0 {
		b.lens[pc] = 1
		b.NoBlocks++
		return 0
	}
	b.lens[pc] = uint8(n + 1)
	b.Blocks++
	return n
}

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
