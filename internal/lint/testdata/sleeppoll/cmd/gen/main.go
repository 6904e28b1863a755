// Command gen paces a load generator with Sleep: outside internal/, where
// the rule does not apply.
package main

import "time"

func main() {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
	}
}
