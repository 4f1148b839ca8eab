// Package ctxflow is an analyzer fixture: cancellation chains severed by
// fresh root contexts, dropped Context-variant calls, and ctx-blind block
// loops, next to their correctly threaded twins.
package ctxflow

import (
	"context"
	"net/http"
	"time"
)

type store struct{}

func (s *store) ReadBlock(i int) ([]byte, error) { return nil, nil }

func (s *store) Scan(fn func([]byte) bool) error { return nil }

func (s *store) ScanContext(ctx context.Context, fn func([]byte) bool) error {
	return ctx.Err()
}

// freshInCtxFunc mints a root context while one is already in scope.
func freshInCtxFunc(ctx context.Context, s *store) error {
	return s.ScanContext(context.Background(), nil)
}

// requestCtx is the server's per-request deadline laid on a fresh root
// instead of the request's context: the deadline still fires, but a
// client that hangs up no longer cancels its query. No test caught that
// mutation in the real code; only package main may mint a root context.
func requestCtx(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// Deprecated: use ScanContext directly. The label sanctions nothing: a
// compatibility wrapper severs cancellation like any other function.
func labelledDeprecated(s *store) error {
	return s.ScanContext(context.Background(), nil)
}

// dropsVariant holds a ctx but calls the blind Scan although ScanContext
// exists.
func dropsVariant(ctx context.Context, s *store) error {
	return s.Scan(nil)
}

// goodVariant threads the ctx through the Context-aware form.
func goodVariant(ctx context.Context, s *store) error {
	return s.ScanContext(ctx, nil)
}

// blindLoop reads a block per iteration without ever consulting ctx.
func blindLoop(ctx context.Context, s *store, n int) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		b, err := s.ReadBlock(i)
		if err != nil {
			return total, err
		}
		total += len(b)
	}
	return total, nil
}

// goodLoop checks ctx.Err() between block reads.
func goodLoop(ctx context.Context, s *store, n int) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		b, err := s.ReadBlock(i)
		if err != nil {
			return total, err
		}
		total += len(b)
	}
	return total, nil
}

// suppressed documents a deliberately detached scan.
func suppressed(ctx context.Context, s *store) error {
	//avqlint:ignore ctxflow the audit scan must outlive the request
	return s.ScanContext(context.Background(), nil)
}
