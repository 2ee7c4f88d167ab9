package experiment

import (
	"fmt"

	"rlz/internal/rlz"
)

// Extensions reproduces the paper's §6 future-work directions as a table:
// the Simple9 length coding ("alternative integer codes, such as simple9
// ... may substantially improve on vbyte") side by side with the paper's
// four codecs, and iterative dictionary refinement ("multiple passes of
// random sampling ... find and eliminate redundancy") side by side with
// plain even sampling.
func Extensions(cfg Config) (*Table, error) {
	c := cfg.gov()
	collection := c.Bytes()
	raw := c.TotalSize()
	dictSize := cfg.DictSizes[0]

	t := &Table{
		ID:     "Extensions",
		Title:  fmt.Sprintf("§6 future-work features, %s collection, %s dictionary", byteLabel(int(raw)), dictLabel(dictSize)),
		Header: []string{"Variant", "Enc. (%)", "Sequential", "Query Log", "Dict unused (%)", "Dict self-rep (%)"},
	}

	run := func(label string, dictData []byte, codec rlz.PairCodec) error {
		dict, perDoc, stats, err := buildRLZ(c, dictData, true)
		if err != nil {
			return err
		}
		r, err := encodeRLZArchive(dictData, perDoc, codec)
		if err != nil {
			return err
		}
		seq, qlog, err := retrieval(r, cfg, raw)
		if err != nil {
			return err
		}
		t.AddRow(label, pct(encPct(r.Size(), raw)), rate(seq), rate(qlog),
			pct(stats.UnusedPercent()), pct(100*dict.SelfRepetition(32)))
		return nil
	}

	evenDict := rlz.SampleEven(collection, dictSize, cfg.SampleSize)
	for _, codec := range rlz.AllCodecs {
		if err := run("even/"+codec.String(), evenDict, codec); err != nil {
			return nil, err
		}
	}
	for _, codec := range rlz.ExtensionCodecs {
		kind := "simple9"
		switch {
		case codec.Pos == rlz.PosP:
			kind = "packed or repeated positions"
		case codec.Len == rlz.LenH:
			kind = "huffman"
		}
		if err := run(fmt.Sprintf("even/%s (%s)", codec, kind), evenDict, codec); err != nil {
			return nil, err
		}
	}
	refined := rlz.SampleIterative(collection, dictSize, cfg.SampleSize,
		rlz.RefineOptions{Passes: 3, Seed: cfg.Seed})
	if err := run("refined/ZZ (iterative)", refined, rlz.CodecZZ); err != nil {
		return nil, err
	}
	return t, nil
}
