//go:build amd64

package mat

import "testing"

// Hooks for the external mat_test package, which drives whole training
// runs (it imports internal/semantic, which this package cannot).

// PureGo runs fn with the assembly kernels switched off.
func PureGo(fn func()) { pureGo(fn) }

// RequireAVX2 fails the test when the assembly kernels are not dispatched,
// and skips it in a purego build, which compiles none.
func RequireAVX2(t *testing.T) { requireAVX2(t) }
