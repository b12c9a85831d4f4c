// Seeded-violation fixture for the determinism analyzer's clock packages:
// a shadow of codsim/internal/dist whose want comments must each be
// matched, so gutting the check fails the suite. Time's types and the
// global math/rand stay allowed.
package dist

import (
	"math/rand/v2"
	"time"
)

func wall(now interface{ Now() time.Time }) (time.Duration, int64) {
	time.Sleep(time.Millisecond)                             // want `time\.Sleep in clock package codsim/internal/dist`
	defer time.NewTimer(time.Since(now.Now())).Stop()        // want `time\.NewTimer in clock package` `time\.Since in clock package`
	<-time.After(0)                                          // want `time\.After in clock package`
	_ = time.Now()                                           // want `time\.Now in clock package`
	return time.Until(now.Now()) + time.Second, rand.Int64() // want `time\.Until in clock package`
}
