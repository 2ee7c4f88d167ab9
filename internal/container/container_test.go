package container

import (
	"bytes"
	"errors"
	"testing"

	"rlz/internal/coding"
)

var formats = []Format{RLZ, Block, Raw}

// frame returns a segment of format f: header, body, maps, and a footer
// whose map offset is mapOff.
func frame(f Format, version byte, body, maps string, mapOff int64) []byte {
	seg := append(f.AppendHeader(nil, version), body...)
	seg = append(seg, maps...)
	return f.AppendFooter(seg, mapOff)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range formats {
		for v := byte(1); v <= f.MaxVersion; v++ {
			for _, c := range []struct{ body, maps string }{{"body", "maps"}, {"", "maps"}, {"body", ""}, {"", ""}} {
				seg := frame(f, v, c.body, c.maps, int64(HeaderSize+len(c.body)))
				ver, mapOff, maps, err := f.Open(bytes.NewReader(seg), int64(len(seg)))
				if err != nil || ver != v || mapOff != int64(HeaderSize+len(c.body)) || string(maps) != c.maps {
					t.Errorf("%s v%d %q: Open = (%d, %d, %q, %v)", f.Magic, v, c, ver, mapOff, maps, err)
				}
			}
		}
	}
}

// TestFrameRejections runs every frame fault once per format; each must
// fail Open with ErrCorrupt.
func TestFrameRejections(t *testing.T) {
	for _, f := range formats {
		good := frame(f, 1, "body", "maps", HeaderSize+4)
		foot := len(good) - FooterSize
		withMapOff := func(off uint64) []byte {
			return append(coding.PutU64(bytes.Clone(good[:foot]), off), f.End...)
		}
		for name, seg := range map[string][]byte{
			"shorter than header and footer": frame(f, 1, "", "", HeaderSize)[:HeaderSize+FooterSize-1],
			"empty":                          nil,
			"bad head magic":                 append([]byte("XXXX"), good[4:]...),
			"other format's magic":           append([]byte(other(f).Magic), good[4:]...),
			"version 0":                      append(f.AppendHeader(nil, 0), good[HeaderSize:]...),
			"version past MaxVersion":        append(f.AppendHeader(nil, f.MaxVersion+1), good[HeaderSize:]...),
			"bad end magic":                  append(bytes.Clone(good[:len(good)-4]), other(f).End...),
			"map offset inside header":       withMapOff(HeaderSize - 1),
			"map offset past footer":         withMapOff(uint64(foot) + 1),
			"map offset past 2^63":           withMapOff(1 << 63),
		} {
			_, _, _, err := f.Open(bytes.NewReader(seg), int64(len(seg)))
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %s: Open = %v, want ErrCorrupt", f.Magic, name, err)
			}
		}
		// The offsets at both ends of the range stay accepted.
		for _, off := range []uint64{HeaderSize, uint64(foot)} {
			if _, _, _, err := f.Open(bytes.NewReader(withMapOff(off)), int64(len(good))); err != nil {
				t.Errorf("%s: map offset %d rejected: %v", f.Magic, off, err)
			}
		}
	}
}

func other(f Format) Format {
	if f == RLZ {
		return Raw
	}
	return RLZ
}
