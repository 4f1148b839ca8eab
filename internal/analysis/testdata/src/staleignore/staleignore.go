// Package staleignore is an avqlint fixture: clean code under a
// suppression that names lockbalance, a rule that has been deleted.
package staleignore

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) inc() {
	c.mu.Lock() //avqlint:ignore lockbalance fixture: a directive for a deleted rule
	c.n++
	c.mu.Unlock()
}
