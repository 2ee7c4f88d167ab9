package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGrep(t *testing.T) {
	dir := t.TempDir()
	docs := map[string]string{
		"a.txt": "alpha needle beta",
		"b.txt": "no hits here",
		"c.txt": "needle at start and needle at end",
	}
	for name, body := range docs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	arc := filepath.Join(t.TempDir(), "g.rlz")
	if err := cmdBuild([]string{"-o", arc, "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGrep([]string{"-a", arc, "needle"}); err != nil {
		t.Fatalf("grep: %v", err)
	}
	if err := cmdGrep([]string{"-a", arc, "-n", "1", "needle"}); err != nil {
		t.Fatalf("limited grep: %v", err)
	}
	if err := cmdGrep([]string{"-a", arc}); err == nil {
		t.Error("grep without pattern accepted")
	}
	if err := cmdGrep([]string{"needle"}); err == nil {
		t.Error("grep without archive accepted")
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = old
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), ferr
}

// TestGrepSingleFileEveryBackend: grep works on a single-file archive of
// any backend — by the scan the same file inside a collection gets — and
// prints the same lines, and refuses the same patterns, whichever
// backend holds the documents.
func TestGrepSingleFileEveryBackend(t *testing.T) {
	dir, _ := writeDocs(t)
	var ref string // what grep prints over the RLZ archive
	for _, backend := range []string{"rlz", "block", "raw"} {
		arc := filepath.Join(t.TempDir(), "out."+backend)
		args := []string{"-o", arc, "-backend", backend, "-dir", dir}
		if backend == "block" {
			args = append(args, "-block", "128B")
		}
		if err := cmdBuild(args); err != nil {
			t.Fatalf("%s: build: %v", backend, err)
		}
		grep := func(args ...string) string {
			t.Helper()
			out, err := captureStdout(t, func() error { return cmdGrep(append([]string{"-a", arc}, args...)) })
			if err != nil {
				t.Fatalf("%s: grep %v: %v", backend, args, err)
			}
			return out
		}
		// "document 1", "document 10" and "document 11".
		got := grep("-c", "8", "document 1")
		if !strings.Contains(got, "3 match(es)") || !strings.Contains(got, `doc 1 @12: "l><body>document 1 — sha"`) {
			t.Errorf("%s: grep printed:\n%s", backend, got)
		}
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("%s: grep prints\n%s\nover the same documents the rlz archive prints\n%s", backend, got, ref)
		}
		if out := grep("-n", "2", "boilerplate"); !strings.Contains(out, "2 match(es)") {
			t.Errorf("%s: limited grep printed:\n%s", backend, out)
		}
		if out := grep("no such text"); !strings.Contains(out, "0 match(es)") {
			t.Errorf("%s: grep for an absent pattern printed:\n%s", backend, out)
		}
		out, err := captureStdout(t, func() error { return cmdGrep([]string{"-a", arc, ""}) })
		if err == nil || !strings.Contains(err.Error(), "empty search pattern") || out != "" {
			t.Errorf("%s: grep for the empty pattern = %v, want a refusal; it printed:\n%s", backend, err, out)
		}
	}
}
