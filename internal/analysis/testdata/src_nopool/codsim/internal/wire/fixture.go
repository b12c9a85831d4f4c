// Seeded-violation fixture for the nopool analyzer: this package shadows
// codsim/internal/wire, whose buffers the backbone's hot path reuses, so
// an exemption for it fails the fixture run.
package wire

import "sync"

var bufPool = sync.Pool{ // want `sync\.Pool in codsim/internal/wire`
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }
