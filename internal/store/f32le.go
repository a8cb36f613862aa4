package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"
)

// The one little-endian float32 codec and CRC32C table of the stack: block
// files, spill files and the block-service wire all carry voxels as raw
// little-endian float32 guarded by a CRC32C, and all of them encode,
// decode and checksum through these helpers.

// Castagnoli is the CRC32C table every block checksum is computed with.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HostLittleEndian gates the zero-copy float32↔byte fast paths: on a
// little-endian host the on-disk and wire encoding is the in-memory one.
var HostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// F32LEBytes returns vals' little-endian bytes as a view of the same memory
// on little-endian hosts, and nil elsewhere (callers fall back to
// AppendF32LE). The view must not outlive the slice's next write.
func F32LEBytes(vals []float32) []byte {
	if !HostLittleEndian || len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*4)
}

// AppendF32LE appends vals' little-endian encoding to b: one bulk copy on
// little-endian hosts, a per-value conversion elsewhere.
func AppendF32LE(b []byte, vals []float32) []byte {
	if raw := F32LEBytes(vals); raw != nil {
		return append(b, raw...)
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// CopyF32LE decodes little-endian bytes into dst (len(src) must be
// 4*len(dst)): one bulk copy on little-endian hosts, a per-value
// conversion elsewhere.
func CopyF32LE(dst []float32, src []byte) {
	if len(dst) == 0 {
		return
	}
	if HostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*4), src)
		return
	}
	for j := range dst {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
	}
}
