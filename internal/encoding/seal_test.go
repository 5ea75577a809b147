package encoding

import (
	"bytes"
	"errors"
	"testing"

	"graphrepair/internal/govern"
)

// TestSealRoundTripGoldens pins the container on the six golden
// corpora: Unseal(Seal(payload)) is byte-identical to the payload,
// the sealed bytes still decode to the same grammar, and the payload
// bytes inside the container are stored verbatim (a sealed archive
// embeds the legacy archive unchanged).
func TestSealRoundTripGoldens(t *testing.T) {
	for name, payload := range sweepCorpora(t) {
		sealed := Seal(payload)
		if !IsSealed(sealed) {
			t.Fatalf("%s: Seal output not recognized by IsSealed", name)
		}
		if IsSealed(payload) {
			t.Fatalf("%s: legacy payload misdetected as sealed", name)
		}
		got, err := Unseal(sealed)
		if err != nil {
			t.Fatalf("%s: Unseal: %v", name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: round trip not byte-identical (%d vs %d bytes)", name, len(got), len(payload))
		}
		if !bytes.HasSuffix(sealed, payload) {
			t.Fatalf("%s: payload not embedded verbatim", name)
		}
		if _, err := Decode(got); err != nil {
			t.Fatalf("%s: unsealed payload no longer decodes: %v", name, err)
		}
		if _, err := Decode(sealed); err != nil {
			t.Fatalf("%s: Decode of the sealed archive: %v", name, err)
		}
	}
}

// TestSealSingleByteCorruption is the acceptance sweep: flipping any
// single byte anywhere in a sealed archive — header, CRC table, or
// payload — must be rejected with ErrCorrupt before the grammar
// decoder runs.
func TestSealSingleByteCorruption(t *testing.T) {
	payload := sweepCorpora(t)["chain64"]
	// A small chunk size forces a multi-entry CRC table so the sweep
	// also crosses chunk boundaries and table bytes.
	sealed := sealChunked(payload, 16)
	for i := range sealed {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= mask
			if _, err := Unseal(mut); !errors.Is(err, govern.ErrCorrupt) {
				t.Fatalf("byte %d ^ %#x: Unseal = %v, want ErrCorrupt", i, mask, err)
			}
			if _, err := Decode(mut); !errors.Is(err, govern.ErrCorrupt) {
				t.Fatalf("byte %d ^ %#x: Decode = %v, want ErrCorrupt", i, mask, err)
			}
		}
	}
}

// TestSealTruncationAndGrowth pins the exact-length check: a sealed
// file missing its last byte, or carrying one extra, is corrupt.
func TestSealTruncationAndGrowth(t *testing.T) {
	sealed := Seal([]byte("some payload bytes"))
	for _, mut := range [][]byte{
		sealed[:len(sealed)-1],
		append(append([]byte(nil), sealed...), 0x00),
		sealed[:3],
		{},
	} {
		if _, err := Unseal(mut); !errors.Is(err, govern.ErrCorrupt) {
			t.Fatalf("len %d: Unseal = %v, want ErrCorrupt", len(mut), err)
		}
	}
}

// TestSealEmptyAndOddSizes pins edge cases: empty payloads and sizes
// around the chunk boundary all round-trip.
func TestSealEmptyAndOddSizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		got, err := Unseal(sealChunked(payload, 16))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestUnsealLegacy pins that a legacy unsealed archive is not
// mistaken for a sealed one: IsSealed is false and Unseal refuses it.
func TestUnsealLegacy(t *testing.T) {
	payload := sweepCorpora(t)["chain64"]
	if IsSealed(payload) {
		t.Fatal("legacy archive misdetected as sealed")
	}
	if _, err := Unseal(payload); !errors.Is(err, govern.ErrCorrupt) {
		t.Fatalf("Unseal(legacy) = %v, want ErrCorrupt", err)
	}
}
