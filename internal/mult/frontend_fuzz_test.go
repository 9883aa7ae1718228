package mult_test

import (
	"testing"

	"april/internal/heap"
	"april/internal/mem"
	"april/internal/mult"
)

// FuzzCompile holds the Mul-T front end (reader, parser, resolver and
// code generator) to errors, never panics, on arbitrary source, under
// each compilation mode.
func FuzzCompile(f *testing.F) {
	f.Add(`(+ 1 (* 6 7))`, uint8(0))
	f.Add(`(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (future (fib (- n 2)))))) (fib 10)`, uint8(1))
	f.Add(`(let ((x (cons 1 2))) (set-car! x (touch (future 3))) (car x))`, uint8(2))
	f.Add(`(define v (make-vector 4 0)) (vector-set! v 1 "s") (vector-ref v 1)`, uint8(3))
	f.Add(`(lambda (x . y) #t) ((((`, uint8(4))
	f.Add(`(let ((x)) x) ') (quote) #\ "unterminated`, uint8(5))
	f.Fuzz(func(t *testing.T, src string, modeBits uint8) {
		mode := mult.Mode{
			HardwareFutures: modeBits&1 != 0,
			LazyFutures:     modeBits&2 != 0,
			Sequential:      modeBits&4 != 0,
		}
		h := heap.New(mem.New(1<<20), mem.NewArena(0x1000, 1<<20))
		_, _ = mult.Compile(src, mode, h)
	})
}
