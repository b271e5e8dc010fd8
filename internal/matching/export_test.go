package matching

// Test helpers exported for the external matching_test package, whose tests
// cross-check against matchtest and so cannot live in package matching.
var (
	RandomGraph    = randomGraph
	TwoChoiceGraph = twoChoiceGraph
)
