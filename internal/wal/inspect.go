package wal

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/storage"
)

// SegmentInfo describes one segment file for offline inspection.
type SegmentInfo struct {
	Name     string `json:"name"`
	BaseGen  uint64 `json:"base_gen"`
	Seq      uint32 `json:"seq"`
	Records  int    `json:"records"`
	Bytes    int64  `json:"bytes"`
	TornTail bool   `json:"torn_tail"`
	HeaderOK bool   `json:"header_ok"`
}

// Inspect scans every segment in a log directory without replaying or
// modifying anything. Used by `avqdb wal`.
func Inspect(fs storage.FS, dir string) ([]SegmentInfo, error) {
	if fs == nil {
		fs = storage.OSFS{}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			// No log directory at all: a checkpoint-only table, not an
			// inspection failure.
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var infos []SegmentInfo
	for _, name := range names {
		g, s, ok := parseSegName(name)
		if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		size, err := fs.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("wal: stat %s: %w", path, err)
		}
		f, err := fs.OpenFile(path, os.O_RDWR)
		if err != nil {
			return nil, fmt.Errorf("wal: open %s: %w", path, err)
		}
		recs, _, damaged, headerOK, err := scanSegment(f, s, g)
		if err = errors.Join(err, f.Close()); err != nil {
			return nil, fmt.Errorf("wal: read %s: %w", path, err)
		}
		infos = append(infos, SegmentInfo{
			Name:     name,
			BaseGen:  g,
			Seq:      s,
			Records:  len(recs),
			Bytes:    size,
			TornTail: damaged,
			HeaderOK: headerOK,
		})
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].BaseGen != infos[j].BaseGen {
			return infos[i].BaseGen < infos[j].BaseGen
		}
		return infos[i].Seq < infos[j].Seq
	})
	return infos, nil
}
