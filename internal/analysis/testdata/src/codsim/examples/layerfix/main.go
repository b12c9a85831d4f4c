// Seeded-violation fixture for the layering analyzer's examples/ scope:
// examples demonstrate the public SDK surface only, and do not assemble
// rigs.
package main

import (
	_ "codsim/internal/dynamics"  // want `codsim/examples/layerfix must not import codsim/internal/dynamics`
	_ "codsim/internal/transport" // want `codsim/examples/layerfix must not import codsim/internal/transport`
)

func main() {}
