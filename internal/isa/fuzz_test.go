package isa

import "testing"

// FuzzDecode holds the instruction front ends to errors, never panics,
// on arbitrary input: Decode of any 64-bit word either fails or yields
// an instruction that Encode and Decode carry through unchanged, and
// Assemble of any text either fails or yields a program whose every
// instruction survives the same round trip and disassembles.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(RI(OpAdd, 8, 9, -4)), "add r8, r9, -4")
	f.Add(Encode(Ld(OpLdnw, 10, 11, 8)), "loop: ldnw r10, [r11+8]\n ba loop")
	f.Add(Encode(Trap(3)), "trap 3\nhalt")
	f.Add(^uint64(0), "movi r8, 0x7fffffff\n stnw [r8], r9 ; comment")
	f.Add(uint64(0), ": ,,, [r1+r2+3] (")
	f.Fuzz(func(t *testing.T, w uint64, src string) {
		if in, err := Decode(w); err == nil {
			roundTrip(t, in)
		}
		p, err := Assemble(src)
		if err != nil {
			return
		}
		for _, in := range p.Code {
			roundTrip(t, in)
		}
		_ = p.Disassemble()
	})
}

// roundTrip checks that a valid instruction encodes, decodes back to
// itself and disassembles.
func roundTrip(t *testing.T, in Inst) {
	t.Helper()
	out, err := Decode(Encode(in))
	if err != nil {
		t.Fatalf("%+v: decode of its encoding: %v", in, err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	_ = in.String()
}
