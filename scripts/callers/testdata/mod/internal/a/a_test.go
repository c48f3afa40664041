package a

import (
	"testing"

	"fixture/internal/testonly"
)

// A test call does not count: Dead stays dead.
func TestDead(t *testing.T) {
	Dead()
	testonly.Helper()
}
