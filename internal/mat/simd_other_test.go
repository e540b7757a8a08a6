//go:build !amd64 || purego

package mat

import "testing"

// Without the assembly kernels (off amd64, or in a purego build) the
// pure-Go loops are the only path: there is nothing to compare them with.

// withEachPath runs fn once, on the Go loops.
func withEachPath(t *testing.T, fn func(t *testing.T)) { t.Run("go", fn) }

// requireAVX2 skips: no kernel is compiled into this build.
func requireAVX2(t *testing.T) {
	t.Helper()
	t.Skip("no assembly kernels in this build (non-amd64 or -tags purego)")
}

// pureGo runs fn; the Go loops are already the only path.
func pureGo(fn func()) { fn() }
