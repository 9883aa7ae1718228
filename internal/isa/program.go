package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Program is an executable APRIL program image: decoded instructions
// indexed by instruction address (the PC is an instruction index, not a
// byte address), an entry point, and an optional symbol table mapping
// procedure names to entry addresses for disassembly and debugging.
type Program struct {
	Code    []Inst
	Entry   uint32
	Symbols map[string]uint32

	// symAt is the lazily built reverse index for SymbolAt, rebuilt
	// whenever Symbols has grown since the last build (the assembler's
	// callers may append runtime stubs after Assemble returns).
	symAt map[uint32]string
	symN  int
}

// Fetch returns the instruction at pc, or an error for a wild PC.
func (p *Program) Fetch(pc uint32) (Inst, error) {
	if int(pc) >= len(p.Code) {
		return Inst{}, fmt.Errorf("isa: PC %d outside program of %d instructions", pc, len(p.Code))
	}
	return p.Code[pc], nil
}

// SymbolAt returns the name of the symbol defined exactly at pc, if
// any. The reverse index is built once and reused (the disassembler
// asks per instruction); when several names share an address the
// lexicographically smallest wins, so the answer is deterministic.
// Not safe for concurrent use with symbol-table mutation.
func (p *Program) SymbolAt(pc uint32) (string, bool) {
	if p.symAt == nil || p.symN != len(p.Symbols) {
		p.symAt = make(map[uint32]string, len(p.Symbols))
		for name, addr := range p.Symbols {
			if prev, ok := p.symAt[addr]; !ok || name < prev {
				p.symAt[addr] = name
			}
		}
		p.symN = len(p.Symbols)
	}
	name, ok := p.symAt[pc]
	return name, ok
}

// Disassemble renders the program as an assembler listing with symbol
// labels.
func (p *Program) Disassemble() string {
	// Invert the symbol table once; sort co-located labels so the
	// listing does not depend on map iteration order.
	labels := make(map[uint32][]string, len(p.Symbols))
	for name, addr := range p.Symbols {
		labels[addr] = append(labels[addr], name)
	}
	for _, names := range labels {
		sort.Strings(names)
	}
	var b strings.Builder
	for pc, in := range p.Code {
		for _, l := range labels[uint32(pc)] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		marker := "  "
		if uint32(pc) == p.Entry {
			marker = "=>"
		}
		fmt.Fprintf(&b, "%s%6d:  %s\n", marker, pc, in)
	}
	return b.String()
}
