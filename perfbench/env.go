package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// minBeyond is how many samples must rank above a percentile before it may
// be reported as the tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 97.5, 95, 90, 75, 50}

// nearestRank is the 1-based nearest rank ⌈p·n/100⌉ of percentile p among n
// samples, computed in integer tenths of a percent so it is exact.
func nearestRank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	return min(max(r, 1), n)
}

// tailPercentile is the highest percentile on tailLadder that leaves at least
// minBeyond of n samples ranked above it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[nearestRank(p, len(sorted))-1]
}

// printEnv prints what a run's numbers depend on besides the code.
func printEnv(w workload, seed uint64, seconds, trace int) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d: %d timed passes, %d warm-up passes\n",
		w.name, seed, seconds, trace, w.passes(seconds), w.warmupPasses())
	fmt.Printf("host %q, %s, GOMAXPROCS %d, GOGC %s, commit %s\n",
		cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0), gogc, commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the VCS revision stamped into the
// binary, or, when built outside a repository, a digest of the module's Go
// sources and go.mod files below the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unstamped, source sha256 " + sourceDigest(".")
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
