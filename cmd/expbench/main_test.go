package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"explink/internal/exp"
	"explink/internal/runctl"
)

// runArgsEnv, when set, makes the test binary run expbench itself with these
// space-separated flags and exit with its status, so a test can drive the
// whole command in a fresh process: run parses the global flag set, which a
// test process has already parsed for itself.
const runArgsEnv = "EXPBENCH_TEST_RUN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runArgsEnv); ok {
		os.Args = append([]string{"expbench"}, strings.Fields(args)...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestPinnedQuickOutput runs `expbench -exp all -quick` and requires its
// stdout to match testdata/all-quick.txt byte for byte: every placement,
// latency and percentage the quick suite prints. The other identity checks
// compare run against run (cold vs warm, local vs sweep), so a change that
// moved every run the same way would pass them.
func TestPinnedQuickOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/all-quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runArgsEnv+"=-exp all -quick")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("expbench -exp all -quick: %v\n%s", err, stderr.Bytes())
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/all-quick.txt at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

func TestValidateParallel(t *testing.T) {
	for _, p := range []int{1, 2, 1024} {
		if err := validateParallel(p); err != nil {
			t.Fatalf("-parallel %d rejected: %v", p, err)
		}
	}
	for _, p := range []int{0, -1, -100} {
		err := validateParallel(p)
		if err == nil {
			t.Fatalf("-parallel %d accepted", p)
		}
		if !errors.Is(err, runctl.ErrConfig) {
			t.Fatalf("-parallel %d: error %v is not ErrConfig-typed", p, err)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(exp.All()) {
		t.Fatalf("all selected %d of %d", len(all), len(exp.All()))
	}

	sel, err := selectExperiments("fig11, FIG5")
	if err != nil {
		t.Fatal(err)
	}
	// Registry order wins over argument order.
	if len(sel) != 2 || sel[0].Name != "fig5" || sel[1].Name != "fig11" {
		t.Fatalf("selection = %v", sel)
	}

	if _, err := selectExperiments("fig5,nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := selectExperiments(" , "); err == nil {
		t.Fatal("empty selection accepted")
	}
}
