//go:build race

package blockstore

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
)

// raceEnabled reports a -race build, whose sync.Pool drops Puts at random.
const raceEnabled = true

// TestViewPoisonsRetainedStream: a race build's viewStream hands its
// callback a copy of the page's stream and overwrites it with viewPoison
// once the callback returns, so a stream kept past its view reads as the
// pattern and fails to decode, while the page itself keeps its bytes.
func TestViewPoisonsRetainedStream(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 500, 48)); err != nil {
		t.Fatal(err)
	}
	id := s.Blocks()[0]
	want, err := s.readStream(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []byte
	if err := s.viewStream(id, func(stream []byte) error {
		if !bytes.Equal(stream, want) {
			t.Error("the view's stream differs from the page's")
		}
		kept = stream
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(want) {
		t.Fatalf("kept %d bytes of a %d-byte stream", len(kept), len(want))
	}
	for i, b := range kept {
		if b != viewPoison {
			t.Fatalf("retained stream byte %d = %#x after its view, want the poison %#x", i, b, viewPoison)
		}
	}
	if _, err := core.DecodeBlockArena(s.schema, kept, nil); err == nil {
		t.Fatal("a poisoned stream decoded")
	}
	got, err := s.readStream(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("poisoning a view's copy changed the page")
	}
}
