// Package ctxloop is a positlint test fixture.
package ctxloop

import "context"

func captureForVar(n int, out chan<- int) {
	for i := 0; i < n; i++ {
		go func() { // clean: since go 1.22 each iteration has its own i
			out <- i
		}()
	}
}

func captureRangeVar(xs []int, out chan<- int) {
	for _, x := range xs {
		go func() { // clean: since go 1.22 each iteration has its own x
			out <- x
		}()
	}
}

func passAsArgument(xs []int, out chan<- int) {
	for _, x := range xs {
		go func(v int) {
			out <- v
		}(x)
	}
}

func ignoresContext(ctx context.Context, xs []int, out chan<- int) {
	for _, x := range xs {
		go func(v int) { // want "never consults the enclosing function's context"
			out <- v
		}(x)
	}
}

func nestedLoops(ctx context.Context, n int, out chan<- int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			go func(v int) { // want "never consults the enclosing function's context"
				out <- v
			}(i * j)
		}
	}
}

func consultsContext(ctx context.Context, xs []int, out chan<- int) {
	for _, x := range xs {
		go func(v int) {
			select {
			case out <- v:
			case <-ctx.Done():
			}
		}(x)
	}
}

func namedWorker(xs []int, out chan<- int) {
	for _, x := range xs {
		go send(out, x) // named call: arguments evaluate at spawn time
	}
}

func send(out chan<- int, v int) { out <- v }
