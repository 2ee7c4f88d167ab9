package rlz_test

import (
	"fmt"
	"log"

	"rlz/internal/rlz"
)

// The paper's running example (§3): factorize x = bbaancabb relative to
// the dictionary d = cabbaabba.
func ExampleDictionary_Factorize() {
	d, err := rlz.NewDictionary([]byte("cabbaabba"))
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range d.Factorize([]byte("bbaancabb"), nil) {
		fmt.Println(f)
	}
	// Output:
	// (2, 4)
	// ('n', 0)
	// (0, 4)
}

func ExampleDictionary_Decode() {
	d, err := rlz.NewDictionary([]byte("cabbaabba"))
	if err != nil {
		log.Fatal(err)
	}
	factors := []rlz.Factor{{Pos: 2, Len: 4}, {Pos: 'n', Len: 0}, {Pos: 0, Len: 4}}
	text, err := d.Decode(nil, factors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", text)
	// Output:
	// bbaancabb
}

func ExampleDictionary_DecodeRange() {
	d, err := rlz.NewDictionary([]byte("cabbaabba"))
	if err != nil {
		log.Fatal(err)
	}
	factors := d.Factorize([]byte("bbaancabb"), nil)
	window, err := d.DecodeRange(nil, factors, 3, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", window)
	// Output:
	// anca
}

func ExampleSampleEven() {
	collection := []byte("aaaaaaaaaabbbbbbbbbbccccccccccdddddddddd")
	// A 8-byte dictionary from 2-byte samples: four samples at evenly
	// spaced positions see all four regions of the collection.
	fmt.Printf("%s\n", rlz.SampleEven(collection, 8, 2))
	// Output:
	// aabbccdd
}

func ExamplePairCodec() {
	factors := []rlz.Factor{{Pos: 10, Len: 32}, {Pos: 'x', Len: 0}}
	enc := rlz.CodecUV.Encode(nil, factors)
	dec, n, err := rlz.CodecUV.Decode(nil, enc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(dec), "factors from", n, "bytes")
	// Output:
	// 2 factors from 13 bytes
}
