//go:build !race

package buildtags

const raceBuild = false
