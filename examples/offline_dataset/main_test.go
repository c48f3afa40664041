package main

import (
	"bytes"
	"os"
	"testing"

	"illixr/internal/testutil"
)

// TestOutputGolden holds the example's output to testdata/output.txt
// byte for byte (`go test -update` rewrites it after a deliberate change),
// and the exported recording's directory is gone once run returns.
func TestOutputGolden(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoldenBytes(t, "testdata/output.txt", out.Bytes())
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("temporary directory holds %d entries after run (%v), want none", len(left), err)
	}
}
