package shard

import (
	"fmt"
)

// Check deep-verifies the sharded database: the catalog's structural
// invariants (split points sorted and disjoint by construction), every
// shard's own store/index/count invariants, and — the cross-layer
// property only this level can state — that every shard's occupied
// φ-span, as witnessed by its block fences, sits inside the φ-range the
// catalog assigns it. A fence outside its catalog range would mean a
// tuple the scatter executor could silently prune.
//
// Check assumes a quiescent database (no concurrent mutations).
func (db *DB) Check() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.cat.Validate(); err != nil {
		return err
	}
	if db.cat.Kind != db.kind {
		return fmt.Errorf("shard: catalog kind %v does not match database kind %v", db.cat.Kind, db.kind)
	}
	if len(db.shards) != db.cat.NumShards() {
		return fmt.Errorf("shard: %d open shards for %d catalog ranges", len(db.shards), db.cat.NumShards())
	}
	for i, sh := range db.shards {
		if err := sh.CheckInvariants(); err != nil {
			return fmt.Errorf("shard: %s: %w", shardName(i), err)
		}
		lo, hi, ok := sh.PhiBounds()
		if !ok {
			if sh.Len() > 0 {
				return fmt.Errorf("shard: %s holds %d tuples but has no usable fences", shardName(i), sh.Len())
			}
			continue
		}
		cLo, cHi := db.cat.RangeOf(i)
		if lo < cLo || hi > cHi {
			return fmt.Errorf("shard: %s fences span [%d, %d] outside catalog range [%d, %d]",
				shardName(i), lo, hi, cLo, cHi)
		}
	}
	return nil
}
