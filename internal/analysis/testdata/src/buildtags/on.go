//go:build race

// Package buildtags is a loader fixture: one constant declared by a pair
// of files with opposite build constraints.
package buildtags

const raceBuild = true
