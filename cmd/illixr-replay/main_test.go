package main

import (
	"flag"
	"io"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-fanout", "8", "-timeout", "0.5", "-speed", "1"}, true},
		{[]string{"-fanout", "-1"}, false},
		{[]string{"-fanout", "0"}, false},
		{[]string{"-timeout", "0"}, false},
		{[]string{"-timeout", "-2"}, false},
		{[]string{"-speed", "-1"}, false},
	} {
		// the command's defaults for the three flags checked
		fs := flag.NewFlagSet("illixr-replay", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("fanout", 1, "")
		fs.Float64("timeout", 5, "")
		speed := fs.Float64("speed", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if err := checkFlags(fs, *speed); (err == nil) != tc.ok {
			t.Errorf("%v: checkFlags = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}
