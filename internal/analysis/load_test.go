package analysis

import (
	"path/filepath"
	"testing"
)

// TestLoadModuleSkipsNestedModules: a subdirectory with its own go.mod
// is another module, so LoadModule leaves it out, as go build ./...
// does. The fixture's nested package cannot type-check as part of the
// outer module, so loading it would fail the whole walk.
func TestLoadModuleSkipsNestedModules(t *testing.T) {
	pkgs, err := NewLoader().LoadModule(filepath.Join("testdata", "nestedmod"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	want := []string{"nestedmod", "nestedmod/sub"}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded %v, want %v", got, want)
		}
	}
}
