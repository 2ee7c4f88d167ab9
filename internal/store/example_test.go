package store_test

import (
	"bytes"
	"fmt"
	"log"

	"rlz/internal/rlz"
	"rlz/internal/store"
)

// Build an archive, then retrieve one document and one in-document range.
func Example() {
	docs := [][]byte{
		[]byte("<html>page one shares this boilerplate</html>"),
		[]byte("<html>page two shares this boilerplate</html>"),
		[]byte("<html>page three shares this boilerplate</html>"),
	}
	dict := []byte("<html>page shares this boilerplate</html>")

	var buf bytes.Buffer
	w, err := store.NewWriter(&buf, dict, rlz.CodecZV)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range docs {
		if _, err := w.Append(d); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	r, err := store.OpenBytes(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	doc, err := r.Get(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", doc)

	window, err := r.GetRange(2, 6, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", window)
	// Output:
	// <html>page two shares this boilerplate</html>
	// page three
}
