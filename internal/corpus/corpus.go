// Package corpus generates synthetic web collections with the statistical
// properties RLZ exploits, standing in for the paper's test collections
// (GOV2, a 426 GB web crawl, and a 256 GB English Wikipedia snapshot —
// neither of which ships with a reproduction).
//
// The generator reproduces, at laptop scale, the structure that drives the
// paper's results:
//
//   - global boilerplate: markup shared by every page of a crawl;
//   - per-site templates: headers, navigation and footers shared by all
//     pages of one host — redundancy that is *non-local* in crawl order,
//     which is precisely what block-oriented compressors miss and what
//     RLZ's sampled dictionary captures;
//   - Zipf-distributed body text over a fixed vocabulary;
//   - mirrored hosts serving identical content under different URLs
//     (the paper's §3.5 argument for why URL sorting is fragile);
//   - URL keys, so collections can be presented in crawl order or
//     URL-sorted order as in Tables 4–7.
//
// Generation is deterministic in the seed.
package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rlz/internal/warc"
)

// Document is one web page: a URL key and its body.
type Document struct {
	URL  string
	Body []byte
}

// Collection is an ordered list of documents.
type Collection struct {
	Docs []Document
}

// Profile shapes a synthetic collection. The two predefined profiles
// correspond to the paper's two test collections.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// AvgDocSize is the mean document size in bytes (GOV2: ~18 KB,
	// Wikipedia: ~45 KB; scaled profiles shrink this).
	AvgDocSize int
	// NumSites is the number of distinct hosts contributing pages.
	NumSites int
	// MirrorEvery makes every k-th site a byte-identical mirror of an
	// earlier site under a different host name; 0 disables mirroring.
	MirrorEvery int
	// VocabSize is the number of distinct body-text words.
	VocabSize int
	// ZipfS is the Zipf skew parameter for word frequencies (>1).
	ZipfS float64
	// TemplateParagraphs is how many boilerplate phrases each site's
	// template cycles through; larger values mean more per-site (global,
	// in crawl order) redundancy.
	TemplateParagraphs int
}

// Gov is a GOV2-like profile: smaller, markup-heavy pages across many
// hosts — the web-crawl shape of the paper's first collection.
var Gov = Profile{
	Name:               "gov",
	AvgDocSize:         16 << 10,
	NumSites:           30,
	MirrorEvery:        7,
	VocabSize:          20000,
	ZipfS:              1.3,
	TemplateParagraphs: 12,
}

// Wiki is a Wikipedia-like profile: fewer hosts (one project, many
// namespaces), larger pages, heavier shared structure (infoboxes,
// citation templates) — the shape of the paper's second collection.
var Wiki = Profile{
	Name:               "wiki",
	AvgDocSize:         36 << 10,
	NumSites:           12,
	MirrorEvery:        0,
	VocabSize:          40000,
	ZipfS:              1.2,
	TemplateParagraphs: 24,
}

// Generate builds a collection of approximately totalBytes in crawl order:
// sites are visited round-robin the way a breadth-first crawler's frontier
// interleaves hosts, so pages of one site are spread across the collection.
func Generate(p Profile, totalBytes int, seed int64) *Collection {
	rng := rand.New(rand.NewSource(seed))
	vocab := makeVocabulary(p.VocabSize, rng)
	zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.VocabSize-1))

	numSites := p.NumSites
	if numSites < 1 {
		numSites = 1
	}
	sites := make([]*site, numSites)
	for i := range sites {
		if p.MirrorEvery > 0 && i > 0 && i%p.MirrorEvery == 0 {
			// A mirror: identical content under a different host. The
			// previous site is never itself a mirror (mirrors sit at
			// multiples of MirrorEvery), so its page bodies are reused.
			sites[i] = &site{host: hostName(i, rng), mirrorOf: i - 1}
			continue
		}
		sites[i] = newSite(i, p, vocab, rng)
	}

	// Round-robin pages across sites until the byte budget is spent.
	c := &Collection{}
	written := 0
	page := 0
	for written < totalBytes {
		for _, s := range sites {
			if written >= totalBytes {
				break
			}
			var doc Document
			if s.mirrorOf >= 0 {
				src := sites[s.mirrorOf]
				if page >= len(src.pages) {
					continue // mirror has nothing new to copy yet
				}
				doc = Document{
					URL:  fmt.Sprintf("http://%s/page/%05d.html", s.host, page),
					Body: src.pages[page],
				}
			} else {
				body := s.renderPage(page, p, vocab, zipf, rng)
				s.pages = append(s.pages, body)
				doc = Document{
					URL:  fmt.Sprintf("http://%s/page/%05d.html", s.host, page),
					Body: body,
				}
			}
			c.Docs = append(c.Docs, doc)
			written += len(doc.Body)
		}
		page++
	}
	return c
}

// site carries one host's template state.
type site struct {
	host     string
	header   string
	footer   string
	phrases  []string
	pages    [][]byte
	mirrorOf int // >= 0 marks a mirror of sites[mirrorOf]
}

func newSite(i int, p Profile, vocab []string, rng *rand.Rand) *site {
	s := &site{host: hostName(i, rng), mirrorOf: -1}
	var hb strings.Builder
	fmt.Fprintf(&hb, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"+
		"<meta charset=\"utf-8\">\n<link rel=\"stylesheet\" href=\"/static/site-%d.css\">\n"+
		"<script src=\"/static/common.js\"></script>\n</head>\n<body>\n"+
		"<div id=\"banner\"><h1>%s</h1>\n<ul class=\"nav\">", i, s.host)
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&hb, "<li><a href=\"/section/%d\">%s</a></li>", j, vocab[rng.Intn(200)])
	}
	hb.WriteString("</ul></div>\n<div id=\"content\">\n")
	s.header = hb.String()
	s.footer = fmt.Sprintf("</div>\n<div id=\"footer\">Copyright %s. All rights reserved. "+
		"Privacy policy | Terms of use | Accessibility | Contact</div>\n</body>\n</html>\n", s.host)
	s.phrases = make([]string, p.TemplateParagraphs)
	for j := range s.phrases {
		var pb strings.Builder
		pb.WriteString("<p class=\"boiler\">")
		for w := 0; w < 30+rng.Intn(30); w++ {
			pb.WriteString(vocab[rng.Intn(500)])
			pb.WriteByte(' ')
		}
		pb.WriteString("</p>\n")
		s.phrases[j] = pb.String()
	}
	return s
}

func (s *site) renderPage(page int, p Profile, vocab []string, zipf *rand.Zipf, rng *rand.Rand) []byte {
	target := p.AvgDocSize/2 + rng.Intn(p.AvgDocSize) // uniform in [0.5, 1.5) x avg
	var b strings.Builder
	b.Grow(target + 512)
	b.WriteString(s.header)
	fmt.Fprintf(&b, "<h2>Page %d</h2>\n", page)
	// Alternate template boilerplate with fresh Zipf text until the size
	// target is met; roughly half of each page is template material,
	// matching the heavy boilerplate fraction of real crawls.
	i := 0
	for b.Len() < target {
		b.WriteString(s.phrases[(page+i)%len(s.phrases)])
		b.WriteString(s.phrases[(page+i+3)%len(s.phrases)])
		b.WriteString("<p>")
		for w := 0; w < 20+rng.Intn(30); w++ {
			b.WriteString(vocab[zipf.Uint64()])
			b.WriteByte(' ')
		}
		b.WriteString("</p>\n")
		i++
	}
	b.WriteString(s.footer)
	return []byte(b.String())
}

func hostName(i int, rng *rand.Rand) string {
	tlds := []string{"gov", "org", "edu", "com", "net"}
	return fmt.Sprintf("www.%s%03d.%s", syllables(rng, 2+rng.Intn(2)), i, tlds[i%len(tlds)])
}

// makeVocabulary builds deterministic pseudo-English words.
func makeVocabulary(n int, rng *rand.Rand) []string {
	if n < 1 {
		n = 1
	}
	vocab := make([]string, n)
	seen := make(map[string]bool, n)
	for i := range vocab {
		for {
			w := syllables(rng, 1+rng.Intn(3))
			if !seen[w] {
				seen[w] = true
				vocab[i] = w
				break
			}
		}
	}
	return vocab
}

func syllables(rng *rand.Rand, n int) string {
	onsets := []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "st", "tr", "ch"}
	nuclei := []string{"a", "e", "i", "o", "u", "ai", "ea", "ou"}
	codas := []string{"", "n", "r", "s", "t", "l", "nd", "st"}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(onsets[rng.Intn(len(onsets))])
		b.WriteString(nuclei[rng.Intn(len(nuclei))])
		b.WriteString(codas[rng.Intn(len(codas))])
	}
	return b.String()
}

// SortByURL reorders the collection into URL order, the arrangement
// Ferragina & Manzini showed helps block compressors (§3.5). The sort is
// stable so equal URLs keep their crawl order.
func (c *Collection) SortByURL() {
	sort.SliceStable(c.Docs, func(i, j int) bool {
		return c.Docs[i].URL < c.Docs[j].URL
	})
}

// Bytes concatenates all document bodies in collection order — the "single
// string" view of §3.3 that dictionary sampling operates on.
func (c *Collection) Bytes() []byte {
	out := make([]byte, 0, c.TotalSize())
	for _, d := range c.Docs {
		out = append(out, d.Body...)
	}
	return out
}

// TotalSize returns the summed body size in bytes.
func (c *Collection) TotalSize() int64 {
	var n int64
	for _, d := range c.Docs {
		n += int64(len(d.Body))
	}
	return n
}

// Len returns the number of documents.
func (c *Collection) Len() int { return len(c.Docs) }

// AvgDocSize returns the mean document size in bytes.
func (c *Collection) AvgDocSize() float64 {
	if len(c.Docs) == 0 {
		return 0
	}
	return float64(c.TotalSize()) / float64(len(c.Docs))
}

// Records converts the collection to warc records for serialization.
func (c *Collection) Records() []warc.Record {
	recs := make([]warc.Record, len(c.Docs))
	for i, d := range c.Docs {
		recs[i] = warc.Record{URL: d.URL, Body: d.Body}
	}
	return recs
}
