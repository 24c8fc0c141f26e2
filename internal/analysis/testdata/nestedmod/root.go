// Package nestedmod is the outer module of the loader's nested-module
// fixture.
package nestedmod

import "nestedmod/sub"

// Answer uses the outer module's own subpackage.
func Answer() int { return sub.Value }
