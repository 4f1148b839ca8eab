package backend

// MaxHandles exports the handle cache's bound to the conformance suite.
const MaxHandles = maxHandles

// MaxInFlight exports the pager's bound on concurrent page writes.
const MaxInFlight = maxInFlight
