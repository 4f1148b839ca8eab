package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/table"
)

// checkAcked compares the harness-inserted tuples an engine holds with
// what the writers were acknowledged: an acknowledged insert that is
// missing, or an acknowledged delete that is still there, is one failed
// operation each. The comparison itself is one attempted operation.
func (in *instance) checkAcked(ctx context.Context, p *phase, eng server.Engine, streams []*stream, where string) {
	p.attempted++
	rs := in.def.rel
	got, _, err := eng.SelectRangeContext(ctx, rs.groupAttr, markerBase, rs.sizes[rs.groupAttr]-1)
	if err != nil {
		p.fail(fmt.Errorf("%s: reading back inserted tuples: %w", where, err))
		return
	}
	want := make(map[string]int)
	var key []byte
	for _, st := range streams {
		for _, tu := range st.w.live {
			key = in.rd.schema.EncodeTuple(key[:0], tu)
			want[string(key)]++
		}
	}
	reappeared := 0
	for _, tu := range got {
		key = in.rd.schema.EncodeTuple(key[:0], relation.Tuple(tu))
		if want[string(key)] == 0 {
			reappeared++
			continue
		}
		want[string(key)]--
	}
	missing := 0
	for _, n := range want {
		missing += n
	}
	for i := 0; i < missing; i++ {
		p.fail(fmt.Errorf("%s: an acknowledged insert is missing (%d in all)", where, missing))
	}
	for i := 0; i < reappeared; i++ {
		p.fail(fmt.Errorf("%s: a deleted or never-acknowledged tuple is present (%d in all)", where, reappeared))
	}
}

// killReopen ends write_mix. The engine is still open and has neither
// checkpointed nor closed since the last write, so the files under in.dir
// are what a process killed right now would leave behind: the last
// checkpoint's pages plus the WAL. They are copied aside and the copy is
// opened with table.Open, which replays the WAL; the reopened table must
// hold every acknowledged write. This is process-kill semantics: the
// operating system's cache is intact, so bytes written but not fsynced
// survive. Power loss is covered by the WAL package's
// kill-at-every-syscall matrix, not here.
//
// It returns the duration of the Open (index rebuild, WAL replay and the
// checkpoint that follows it).
func (in *instance) killReopen(ctx context.Context, p *phase, streams []*stream) (replayS float64) {
	p.attempted++
	killed := in.dir + "-killed"
	defer os.RemoveAll(killed) //nolint:errcheck // scratch copy
	if err := copyTree(in.dir, killed); err != nil {
		p.fail(fmt.Errorf("kill-reopen: copying database: %w", err))
		return 0
	}
	t0 := time.Now()
	tb, err := table.Open(in.def.pagePath(killed), in.def.tableOptions(nil)...)
	replayS = time.Since(t0).Seconds()
	if err != nil {
		p.fail(fmt.Errorf("kill-reopen: open: %w", err))
		return replayS
	}
	defer tb.Close() //nolint:errcheck // scratch copy
	if got, want := tb.Len(), in.wantLen(streams); got != want {
		p.fail(fmt.Errorf("kill-reopen: %d tuples after replay, want %d", got, want))
	}
	if err := tb.Check(); err != nil {
		p.fail(fmt.Errorf("kill-reopen: invariant check: %w", err))
	}
	in.checkAcked(ctx, p, tb, streams, "kill-reopen")
	return replayS
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		from, err := os.Open(path)
		if err != nil {
			return err
		}
		defer from.Close() //nolint:errcheck // read side
		to, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(to, from); err != nil {
			to.Close() //nolint:errcheck // already failing
			return err
		}
		return to.Close()
	})
}
