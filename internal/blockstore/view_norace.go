//go:build !race

package blockstore

// poisonViews is off outside race builds: viewStream hands its callback
// the pinned frame's own bytes and allocates nothing.
const poisonViews = false
