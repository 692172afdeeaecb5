// Fixture for ctxflow rule 1: fresh context roots in a library package
// are findings wherever they appear; forwarding a received ctx is silent.
package a

import "context"

func recv(ctx context.Context, c chan int) int {
	select {
	case v := <-c:
		return v
	case <-ctx.Done():
		return 0
	}
}

func Bad(c chan int) int {
	return recv(context.Background(), c) // want `context\.Background\(\) in a library package`
}

func Todo() context.Context {
	return context.TODO() // want `context\.TODO\(\) in a library package`
}

// Forward receives a ctx and forwards it. Silent.
func Forward(ctx context.Context, c chan int) int {
	return recv(ctx, c)
}

// Drop receives a ctx but mints a root for its callee; in a library
// package rule 1 owns the site and rule 2 does not run, so it is one
// finding.
func Drop(ctx context.Context, c chan int) int {
	return recv(context.Background(), c) // want `context\.Background\(\) in a library package`
}

// Allowed demonstrates the suppression path end to end.
func Allowed(c chan int) int {
	//mslint:allow ctxflow fixture exercises the allow path
	return recv(context.Background(), c)
}
