package backend

// MaxHandles exports the handle cache's bound to the conformance suite.
const MaxHandles = maxHandles
