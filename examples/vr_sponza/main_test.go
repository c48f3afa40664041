package main

import (
	"bytes"
	"testing"

	"illixr/internal/testutil"
)

// TestOutputGolden holds the example's output to testdata/output.txt
// byte for byte (`go test -update` rewrites it after a deliberate change).
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGoldenBytes(t, "testdata/output.txt", out.Bytes())
}
