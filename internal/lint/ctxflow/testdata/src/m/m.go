// Fixture for ctxflow rule 2 in package main: rule 1 is off (main owns
// its roots), but a function that received a ctx still must not hand a
// fresh root to any callee, blocking or not, directly or from a func
// literal nested in it.
package main

import (
	"context"
	"time"
)

func recv(ctx context.Context, c chan int) int {
	select {
	case v := <-c:
		return v
	case <-ctx.Done():
		return 0
	}
}

// label never blocks: the rule does not ask whether the callee does.
func label(ctx context.Context, s string) string {
	return s
}

func retry(ctx context.Context, f func() int) int {
	return f()
}

func handle(ctx context.Context, c chan int) int {
	return recv(context.Background(), c) // want `handle receives a ctx but passes context\.Background\(\) to recv`
}

func name(ctx context.Context) string {
	return label(context.TODO(), "x") // want `name receives a ctx but passes context\.TODO\(\) to label`
}

// resend's literal receives no ctx of its own; it sits inside one that does.
func resend(ctx context.Context, c chan int) int {
	return retry(ctx, func() int {
		return recv(context.Background(), c) // want `resend receives a ctx but passes context\.Background\(\) to recv`
	})
}

// drain bounds a wait that must outlive ctx by deriving from a fresh
// root; the callee is in package context. Silent.
func drain(ctx context.Context, c chan int) int {
	dctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return recv(dctx, c)
}

func main() {
	ctx := context.Background() // ok: main owns the process root
	c := make(chan int, 4)
	c <- 1
	_ = handle(ctx, c)
	_ = recv(context.Background(), c) // ok: main receives no ctx
	hook := func(ctx context.Context) int {
		return recv(context.TODO(), c) // want `func literal receives a ctx but passes context\.TODO\(\) to recv`
	}
	_ = hook(ctx)
	_ = name(ctx)
	_ = resend(ctx, c)
	_ = drain(ctx, c)
}
