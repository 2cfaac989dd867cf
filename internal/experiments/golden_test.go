package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.golden from the tables the code prints now")

// goldenIDs are the tables whose every cell is a function of the seed.
// S1 and T5-T10 (and F7/F7b) print wall-clock or machine-speed columns,
// so they stay out.
var goldenIDs = []string{
	"T1", "T2", "T3", "T4",
	"F1", "F2", "F3", "F4", "F5", "F6", "F8", "F9", "F10", "F11", "F12",
	"A1", "A2", "A3", "A4", "A5",
	"E1",
}

// TestTablesMatchGolden pins every deterministic table byte for byte to
// its testdata/<ID>.golden, so "every table unchanged" is a checked
// claim. After an intended change, rewrite the files with
// `go test ./internal/experiments -run TablesMatchGolden -update` and
// review the diff.
func TestTablesMatchGolden(t *testing.T) {
	byID := make(map[string]Experiment)
	for _, e := range All() {
		byID[e.ID] = e
	}
	for _, id := range goldenIDs {
		e, ok := byID[id]
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := e.Run().Format()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s\n%s", id, path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return ""
}
