//go:build race

package blockstore

// poisonViews makes viewStream hand its callback a copy of the page's
// stream and overwrite it with viewPoison once the callback returns, so a
// race build turns a stream kept past its view into garbage.
const poisonViews = true
