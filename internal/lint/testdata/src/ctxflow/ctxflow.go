// Package ctxflow exercises the ctxflow analyzer: functions holding a
// context must thread it to callees that accept one.
package ctxflow

import "context"

func helper(ctx context.Context) {}

// process has its own context but hands callees fresh, undying ones.
func process(ctx context.Context) {
	helper(context.Background()) // want "context.Background passed to helper inside a function that has its own context"
	helper(context.TODO())       // want "context.TODO passed to helper inside a function that has its own context"
	helper(ctx)
}

// root has no context of its own; starting from Background is the only
// option and is not flagged.
func root() {
	helper(context.Background())
}

// detached detaches deliberately and says why.
func detached(ctx context.Context) {
	go helper(context.Background()) //sapla:detach fixture model of a background task that must outlive the request
}
