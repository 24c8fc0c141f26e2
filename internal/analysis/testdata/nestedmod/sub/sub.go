// Package sub is an ordinary subpackage of the outer module.
package sub

// Value is read by the root package.
const Value = 42
