//go:build !amd64

package mat

import "testing"

// withEachPath runs fn once: off amd64 the pure-Go loops are the only path.
func withEachPath(t *testing.T, fn func(t *testing.T)) { t.Run("go", fn) }
