// Package inner belongs to a nested module. It imports a path only its
// own module could resolve, so loading it as part of the outer module
// fails.
package inner

import "inner/missing"

// Broken only type-checks inside module inner.
var Broken = missing.Value
