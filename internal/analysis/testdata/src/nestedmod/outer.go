// Package nestedmod is the LoadAll fixture for nested modules: this
// directory belongs to the enclosing module, inner/ starts its own.
package nestedmod
