package analysis

// This file is the forward-dataflow engine the flow-sensitive analyzers
// share. An analysis instantiates FlowSpec with its fact type — pinflow
// and snapflow use per-resource lattice states — and RunFlow drives a
// worklist to a fixpoint over a BuildCFG
// graph: facts merge at joins, propagate through each block's transfer
// function, and may be refined along condition-carrying edges (the
// `err != nil` edge of an acquisition demotes the resource to unborn,
// which is what makes the early-return idiom analyzable at all).

// FlowSpec describes one forward dataflow problem over fact type F.
//
// The lattice contract: Merge must be a commutative, idempotent join of
// finite height, and Transfer must be monotone with respect to it —
// together they guarantee the worklist reaches a fixpoint. RunFlow still
// carries a step bound as a backstop, so a buggy analysis degrades to
// under-approximation instead of a hang.
type FlowSpec[F any] struct {
	// Bottom returns the least fact: the state on entry and at
	// unreachable blocks.
	Bottom func() F
	// Clone returns an independent copy Transfer and Refine may mutate.
	Clone func(F) F
	// Merge joins src into dst and returns the join.
	Merge func(dst, src F) F
	// Equal reports whether two facts are identical (fixpoint test).
	Equal func(a, b F) bool
	// Refine optionally sharpens a fact along a condition-carrying edge
	// before it merges into the target block. It may mutate and return
	// its argument. Nil disables refinement.
	Refine func(e *CFGEdge, f F) F
	// Transfer applies one block's nodes to the incoming fact and returns
	// the outgoing fact. It may mutate and return its argument.
	Transfer func(b *CFGBlock, f F) F
}

// FlowResult holds the fixpoint facts at block boundaries.
type FlowResult[F any] struct {
	In  map[*CFGBlock]F
	Out map[*CFGBlock]F
	// Steps counts worklist iterations, exposed for the convergence tests.
	Steps int
	// Converged is false only if the step bound fired before stability.
	Converged bool
}

// RunFlow runs the worklist fixpoint of spec over g.
func RunFlow[F any](g *CFG, spec FlowSpec[F]) FlowResult[F] {
	res := FlowResult[F]{
		In:        make(map[*CFGBlock]F, len(g.Blocks)),
		Out:       make(map[*CFGBlock]F, len(g.Blocks)),
		Converged: true,
	}
	for _, b := range g.Blocks {
		res.In[b] = spec.Bottom()
		res.Out[b] = spec.Transfer(b, spec.Bottom())
	}

	queued := make([]bool, len(g.Blocks))
	queue := make([]*CFGBlock, 0, len(g.Blocks))
	push := func(b *CFGBlock) {
		if !queued[b.Index] {
			queued[b.Index] = true
			queue = append(queue, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}

	// The bound is generous: lattices here have height <= 3 per tracked
	// object, so real analyses settle in a small multiple of |blocks|.
	maxSteps := 64*len(g.Blocks) + 256
	for len(queue) > 0 && res.Steps < maxSteps {
		res.Steps++
		b := queue[0]
		queue = queue[1:]
		queued[b.Index] = false

		in := spec.Bottom()
		for _, e := range b.Preds {
			f := spec.Clone(res.Out[e.From])
			if spec.Refine != nil {
				f = spec.Refine(e, f)
			}
			in = spec.Merge(in, f)
		}
		res.In[b] = in
		out := spec.Transfer(b, spec.Clone(in))
		if !spec.Equal(out, res.Out[b]) {
			res.Out[b] = out
			for _, e := range b.Succs {
				push(e.To)
			}
		}
	}
	if len(queue) > 0 {
		res.Converged = false
	}
	return res
}
