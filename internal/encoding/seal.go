// Sealed archives: an optional integrity container around an encoded
// grammar. The inner payload (what Encode produces and Decode parses)
// is untouched — Seal prepends a fixed header and a CRC32 table so a
// server can detect bit rot at load time with a typed ErrCorrupt
// instead of trusting the decoder's structural checks alone.
//
// Layout (all integers little-endian, fixed width):
//
//	offset  size  field
//	0       4     magic "GRSL"
//	4       1     version (1)
//	5       4     chunk size in bytes
//	9       8     payload length in bytes
//	17      4     CRC32 (IEEE) over bytes [0,17)
//	21      4·n   per-chunk CRC32s, n = ⌈payloadLen/chunkSize⌉
//	21+4n   ...   payload (exactly payloadLen bytes, nothing after)
//
// Every field is covered by a checksum: the header by its own CRC,
// each payload chunk by its table entry, and a corrupted table entry
// is itself detected because the chunk it describes no longer
// matches. A sealed file therefore rejects any single corrupted byte
// anywhere in the file before the grammar decoder runs. The exact
// total-length check makes truncation and trailing garbage corrupt
// too. Plain archives simply lack the magic; DecodeContext reads both,
// unsealing first when IsSealed holds.
package encoding

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"graphrepair/internal/faultinject"
	"graphrepair/internal/govern"
)

const (
	sealMagic     = "GRSL"
	sealVersion   = 1
	sealHeaderLen = 4 + 1 + 4 + 8 + 4

	// defaultSealChunk is the chunk size Seal uses: small enough to
	// localize a corruption report, large enough that the CRC table is
	// negligible (<0.007% overhead).
	defaultSealChunk = 64 << 10

	// maxSealChunk bounds the chunk size Unseal accepts; anything
	// larger cannot have been written by Seal.
	maxSealChunk = 1 << 30
)

// IsSealed reports whether buf begins with the seal container magic.
// A legacy unsealed archive starts with the grammar magic instead.
func IsSealed(buf []byte) bool {
	return len(buf) >= len(sealMagic) && string(buf[:len(sealMagic)]) == sealMagic
}

// Seal wraps an encoded grammar payload in the integrity container
// with the default chunk size. The payload bytes are stored verbatim:
// Unseal(Seal(p)) returns p exactly.
func Seal(payload []byte) []byte { return sealChunked(payload, defaultSealChunk) }

// sealChunked is Seal with an explicit chunk size in 1..maxSealChunk;
// the tests use small chunks to cover multi-chunk layouts cheaply.
func sealChunked(payload []byte, chunkSize int) []byte {
	n := (len(payload) + chunkSize - 1) / chunkSize
	out := make([]byte, 0, sealHeaderLen+4*n+len(payload))
	out = append(out, sealMagic...)
	out = append(out, sealVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(chunkSize))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	for i := 0; i < n; i++ {
		lo := i * chunkSize
		hi := min(lo+chunkSize, len(payload))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload[lo:hi]))
	}
	return append(out, payload...)
}

// Unseal verifies a sealed archive and returns the inner payload (a
// view into buf, not a copy). Every failure — wrong magic, bad
// version, checksum mismatch, truncation, trailing bytes — is
// classified under govern.ErrCorrupt.
func Unseal(buf []byte) ([]byte, error) {
	if faultinject.Enabled {
		if err := faultinject.Hit(faultinject.SealVerify); err != nil {
			return nil, govern.Corrupt(err)
		}
	}
	if !IsSealed(buf) {
		return nil, govern.Corrupt(fmt.Errorf("seal: bad magic"))
	}
	if len(buf) < sealHeaderLen {
		return nil, govern.Corrupt(fmt.Errorf("seal: truncated header (%d bytes)", len(buf)))
	}
	if got, want := crc32.ChecksumIEEE(buf[:sealHeaderLen-4]),
		binary.LittleEndian.Uint32(buf[sealHeaderLen-4:sealHeaderLen]); got != want {
		return nil, govern.Corrupt(fmt.Errorf("seal: header checksum mismatch"))
	}
	// The header checksum has passed, so these fields are trustworthy;
	// the plausibility checks below guard against a version this code
	// never wrote, not against corruption.
	if v := buf[4]; v != sealVersion {
		return nil, govern.Corrupt(fmt.Errorf("seal: unsupported version %d", v))
	}
	chunkSize := int64(binary.LittleEndian.Uint32(buf[5:9]))
	payloadLen := binary.LittleEndian.Uint64(buf[9:17])
	if chunkSize <= 0 || chunkSize > maxSealChunk {
		return nil, govern.Corrupt(fmt.Errorf("seal: implausible chunk size %d", chunkSize))
	}
	if payloadLen > uint64(len(buf)) {
		return nil, govern.Corrupt(fmt.Errorf("seal: payload length %d exceeds file size %d", payloadLen, len(buf)))
	}
	n := (int64(payloadLen) + chunkSize - 1) / chunkSize
	start := int64(sealHeaderLen) + 4*n
	if int64(len(buf)) != start+int64(payloadLen) {
		return nil, govern.Corrupt(fmt.Errorf("seal: file is %d bytes, layout demands %d",
			len(buf), start+int64(payloadLen)))
	}
	payload := buf[start:]
	for i := int64(0); i < n; i++ {
		lo := i * chunkSize
		hi := min(lo+chunkSize, int64(payloadLen))
		got := crc32.ChecksumIEEE(payload[lo:hi])
		want := binary.LittleEndian.Uint32(buf[sealHeaderLen+4*i : sealHeaderLen+4*i+4])
		if got != want {
			return nil, govern.Corrupt(fmt.Errorf("seal: chunk %d/%d checksum mismatch", i, n))
		}
	}
	return payload, nil
}
