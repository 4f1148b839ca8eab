module inner

go 1.22
