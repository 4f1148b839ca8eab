package table

// Sync, NewSync and (*Table).Table exist only because the frozen bench/
// module spells them: Table is itself safe for concurrent use, so they are
// identities. Nothing else may reference them; they go with the harness's
// next revision.
type Sync = Table

func NewSync(t *Table) *Sync { return t }

func (t *Table) Table() *Table { return t }
