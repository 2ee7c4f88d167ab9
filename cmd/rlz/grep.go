package main

import (
	"flag"
	"fmt"
	"os"

	"rlz/internal/archive"
)

// cmdGrep searches the archive for a byte pattern and prints one line per
// match: document ID, offset, and a context window fetched with GetRange
// (on an RLZ archive only the window is decoded, not the whole document
// twice). The search decodes each document once and scans it: that is
// the segment router's scan, so a single-file archive of any backend is
// wrapped in a one-member Set and searched as the same file inside a
// collection would be.
func cmdGrep(args []string) error {
	fs := flag.NewFlagSet("grep", flag.ExitOnError)
	arc := fs.String("a", "", "archive path (required)")
	limit := fs.Int("n", 0, "stop after this many matches (0 = all)")
	radius := fs.Int("c", 30, "context bytes shown on each side of a match")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arc == "" || fs.NArg() != 1 {
		return fmt.Errorf("grep: -a ARCHIVE and exactly one PATTERN are required")
	}
	pattern := []byte(fs.Arg(0))

	r, err := archive.Open(*arc)
	if err != nil {
		return err
	}
	defer r.Close()
	s, ok := archive.As[archive.Searcher](r)
	if !ok {
		s = archive.NewSet(r.Stats().Backend, []archive.Reader{r}, nil)
	}

	matches, err := s.FindAll(pattern, *limit)
	if err != nil {
		return err
	}
	for _, m := range matches {
		ctx, err := s.GetRange(m.Doc, m.Offset-*radius, m.Offset+len(pattern)+*radius)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "doc %d @%d: %q\n", m.Doc, m.Offset, ctx)
	}
	fmt.Fprintf(os.Stdout, "%d match(es)\n", len(matches))
	return nil
}
