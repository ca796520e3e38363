package exp

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"explink/internal/core"
	"explink/internal/stats"
)

// testStore is shared by every test in the package: placements already solved
// by an earlier test are answered from cache, which keeps the suite fast
// without changing any result (cached solves are bit-identical).
var testStore, _ = core.NewPlacementStore("")

// quickOpts is the reduced-size seed-1 run expbench -quick makes, plus the
// shared test store.
func quickOpts() Options {
	return Options{Quick: true, Seed: 1, Store: testStore}
}

// TestRegistryQuickRun is the one table-driven smoke test for the whole
// suite: every registered experiment runs in quick mode, produces a
// non-trivial report that round-trips through JSON, and renders identically
// across two same-seed runs.
func TestRegistryQuickRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			rep, err := e.Run(quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Name != e.Name {
				t.Fatalf("report name %q != experiment name %q", rep.Name, e.Name)
			}
			if rep.Title != e.Desc || rep.Section != e.Section {
				t.Fatalf("report identity not stamped: %+v", rep)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("report has no tables")
			}
			for _, tab := range rep.Tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q is empty", tab.Title)
				}
			}
			out := rep.Render()
			if out == "" {
				t.Fatal("empty render")
			}

			// JSON round trip: the structured result survives marshalling and
			// renders to the same text.
			buf, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var back stats.Report
			if err := json.Unmarshal(buf, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, &back) {
				t.Fatalf("JSON round trip changed the report:\n%+v\nvs\n%+v", rep, &back)
			}
			if back.Render() != out {
				t.Fatal("round-tripped report renders differently")
			}

			// Determinism: a second same-seed run renders byte-identically.
			rep2, err := e.Run(quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if rep2.Render() != out {
				t.Fatalf("same-seed rerun rendered differently:\n%s\nvs\n%s", out, rep2.Render())
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := Lookup("fig5"); !ok {
		t.Fatal("fig5 not found")
	}
	if e, ok := Lookup("FIG5"); !ok || e.Name != "fig5" {
		t.Fatal("lookup is not case-insensitive")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus name resolved")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if e.Name == "" || e.Desc == "" || e.Section == "" || e.Run == nil {
			t.Fatalf("incomplete registration: %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestRegistryMatchesPackageDoc keeps the experiment index in the package
// documentation in lockstep with the registry: same names, same order, same
// one-line descriptions.
func TestRegistryMatchesPackageDoc(t *testing.T) {
	f, err := os.Open("exp.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	type entry struct{ name, desc string }
	var doc []entry
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "package ") {
			break
		}
		if strings.Contains(line, "Experiment index:") {
			in = true
			continue
		}
		if !in {
			continue
		}
		// Index entries are tab-indented comment lines: "//\tname  desc".
		body, ok := strings.CutPrefix(line, "//\t")
		if !ok {
			continue
		}
		name, desc, ok := strings.Cut(body, " ")
		if !ok {
			continue
		}
		doc = append(doc, entry{name, strings.TrimSpace(desc)})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	reg := All()
	if len(doc) != len(reg) {
		t.Fatalf("doc index has %d entries, registry has %d", len(doc), len(reg))
	}
	for i, e := range reg {
		if doc[i].name != e.Name {
			t.Fatalf("doc index entry %d is %q, registry says %q", i, doc[i].name, e.Name)
		}
		if doc[i].desc != e.Desc {
			t.Fatalf("%s: doc desc %q != registry desc %q", e.Name, doc[i].desc, e.Desc)
		}
	}
}
