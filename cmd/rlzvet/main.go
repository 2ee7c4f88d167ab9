// Command rlzvet runs the repository's invariant analyzers (errclose,
// alloccap) over Go packages:
//
//	rlzvet [-json] [packages]   (default ./...)
//
// It loads every matched package and its dependencies with `go list`,
// in dependency order, and hands them to analysis.Check — the same run
// TestRepositoryIsClean makes. Findings go to stderr as vet-style lines,
// or, with -json, to stdout as a JSON array of
// {file,line,col,analyzer,message} objects that CI turns into source
// annotations. The exit status is 0 when clean, 2 with findings and 1
// when the packages do not load.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rlz/internal/analysis"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help") {
		printHelp()
		return
	}
	asJSON := false
	patterns := args[:0:0]
	for _, a := range args {
		if a == "-json" || a == "--json" {
			asJSON = true
			continue
		}
		patterns = append(patterns, a)
	}
	os.Exit(run(patterns, asJSON))
}

func printHelp() {
	fmt.Println("rlzvet checks this repository's hand-maintained invariants.\n\nAnalyzers:")
	for _, a := range analysis.Analyzers() {
		fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Println("\nUsage: rlzvet [-json] [packages]   (default ./...)")
}

func run(patterns []string, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlzvet:", err)
		return 1
	}
	findings, err := analysis.Check(pkgs, analysis.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlzvet:", err)
		return 1
	}
	if asJSON {
		if err := printJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "rlzvet:", err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// jsonFinding is the machine-readable shape -json emits, one object per
// finding. Kept flat and lower-case so CI shell can consume it with any
// JSON tool.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(w io.Writer, findings []analysis.Finding) error {
	cwd, _ := os.Getwd()
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		file := f.Pos.Filename
		// Repo-relative paths so CI annotations land on diff lines.
		if cwd != "" && filepath.IsAbs(file) {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		out = append(out, jsonFinding{
			File:     file,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}
