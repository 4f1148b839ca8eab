// Package inner lives in its own module; LoadAll over the parent must not
// reach it (the import below resolves nowhere, so loading it would fail).
package inner

import _ "inner/does/not/exist"
