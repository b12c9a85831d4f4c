// Seeded-violation fixture for the nopool analyzer: this package shadows
// codsim/internal/cb, whose buffers the backbone's hot path reuses, so
// an exemption for it fails the fixture run.
package cb

import "sync"

var scratchPool sync.Pool // want `sync\.Pool in codsim/internal/cb`

func scratch() any { return scratchPool.Get() }
