package table

// Sync, NewSync, (*Table).Table and WithBlockCache exist only because the
// frozen bench/ module spells them: Table is itself safe for concurrent
// use, so the first three are identities, and the buffer pool's coded
// pages are the only block cache, so WithBlockCache configures nothing.
// Nothing else may reference them; they go with the harness's next
// revision.
type Sync = Table

func NewSync(t *Table) *Sync { return t }

func (t *Table) Table() *Table { return t }

func WithBlockCache(int) Option { return optionFunc(func(*Options) {}) }
