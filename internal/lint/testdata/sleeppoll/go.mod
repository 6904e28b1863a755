module lintfixture/sleeppoll

go 1.24
