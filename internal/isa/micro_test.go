package isa

import "testing"

func TestKindOfAgreesWithPredecode(t *testing.T) {
	for op := 0; op < 256; op++ {
		want := PredecodeInst(Inst{Op: Opcode(op)}).Kind
		if got := KindOf(Opcode(op)); got != want {
			t.Fatalf("KindOf(%d) = %v, want %v", op, got, want)
		}
	}
}
