// Command spanreg manages a spanner registry, either offline against
// a directory (the same format cmd/spand pre-warms from) or remotely
// against a running spand or spangate over the /v1 API. Offline it
// registers expressions, lists and inspects stored manifests, and
// exports / imports artifacts so a compiled spanner can be
// distributed to another machine and served there without ever
// recompiling; with -addr the same verbs go through the
// spanners/client package instead, so one tool administers a single
// server and a whole sharded cluster alike (spangate broadcasts
// registry writes to every shard).
//
// Usage:
//
//	spanreg -dir DIR register NAME EXPR     compile + store, print NAME@VERSION
//	spanreg -dir DIR register-algebra NAME EXPR   compose registered spanners
//	                                        (union/project/join syntax), store the
//	                                        composed program with its leaves pinned
//	spanreg -dir DIR eval [-explain] EXPR [DOC|-]
//	                                        plan an algebra expression against the
//	                                        registry and run it over DOC (or stdin),
//	                                        one JSON mapping per line; -explain first
//	                                        prints the optimized plan (rewrite log,
//	                                        per-node variable sets, cost estimates),
//	                                        and with no DOC prints only the plan
//	spanreg -dir DIR list                   one line per name (latest version)
//	spanreg -dir DIR versions NAME          every stored version, newest first
//	spanreg -dir DIR show NAME[@VERSION]    manifest JSON
//	spanreg -dir DIR export NAME[@VERSION] FILE   write the artifact ("-" = stdout)
//	spanreg -dir DIR import NAME FILE       validate + store an exported artifact
//	spanreg -dir DIR delete NAME[@VERSION]
//
//	spanreg -addr URL register NAME EXPR    same verbs against a live server
//	spanreg -addr URL register-algebra NAME EXPR
//	spanreg -addr URL eval EXPR [DOC|-]     served evaluation, streamed NDJSON
//	spanreg -addr URL list
//	spanreg -addr URL show NAME[@VERSION]
//	spanreg -addr URL delete NAME[@VERSION]
//
// register, register-algebra and import print the content-addressed
// "name@version" reference on stdout, so scripts can pin exactly what
// they stored. An eval leaf may itself name a registered algebra
// expression, and exported algebra artifacts keep their kind across
// import — the artifact envelope records whether its source is an
// RGX or an algebra expression. versions, export, import and -explain
// need the artifact store underneath and stay directory-only.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spanners"
	"spanners/client"
	"spanners/internal/algebra"
	"spanners/internal/registry"
	"spanners/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spanreg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "registry directory (offline mode)")
	addr := fs.String("addr", "", "spand or spangate base URL (remote mode)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: spanreg {-dir DIR | -addr URL} {register|list|versions|show|export|import|delete|eval} ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*dir == "") == (*addr == "") || fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	if *addr != "" {
		c, err := client.New(*addr)
		if err == nil {
			err = dispatchRemote(c, cmd, rest, stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "spanreg:", err)
			return 1
		}
		return 0
	}
	reg, err := registry.Open(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "spanreg:", err)
		return 1
	}
	if err := dispatch(reg, cmd, rest, stdout); err != nil {
		fmt.Fprintln(stderr, "spanreg:", err)
		return 1
	}
	return 0
}

func dispatch(reg *registry.Registry, cmd string, args []string, stdout io.Writer) error {
	need := func(n int, usage string) error {
		if len(args) != n {
			return fmt.Errorf("usage: spanreg -dir DIR %s", usage)
		}
		return nil
	}
	switch cmd {
	case "register":
		if err := need(2, "register NAME EXPR"); err != nil {
			return err
		}
		man, _, err := reg.Register(args[0], args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", man.Ref())
		return nil

	case "register-algebra":
		if err := need(2, "register-algebra NAME EXPR"); err != nil {
			return err
		}
		plan, err := planAlgebra(reg, args[1])
		if err != nil {
			return err
		}
		man, _, err := reg.RegisterCompiled(args[0], plan.Spanner.WithAlgebraSource(plan.Pinned))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", man.Ref())
		return nil

	case "eval":
		efs := flag.NewFlagSet("eval", flag.ContinueOnError)
		explain := efs.Bool("explain", false, "print the plan (rewrites, per-node variable sets, cost estimates) before any results")
		if err := efs.Parse(args); err != nil {
			return err
		}
		args = efs.Args()
		if len(args) != 1 && len(args) != 2 {
			return fmt.Errorf("usage: spanreg -dir DIR eval [-explain] EXPR [DOC|-]")
		}
		plan, err := planAlgebra(reg, args[0])
		if err != nil {
			return err
		}
		if *explain {
			fmt.Fprint(stdout, plan.Explain())
			// Explaining without a document is a pure planning run:
			// never block on stdin for input nobody will send.
			if len(args) == 1 {
				return nil
			}
		}
		text := ""
		if len(args) == 2 && args[1] != "-" {
			text = args[1]
		} else {
			b, err := io.ReadAll(os.Stdin)
			if err != nil {
				return err
			}
			text = string(b)
		}
		doc := spanners.NewDocument(text)
		var encErr error
		plan.Spanner.Enumerate(doc, func(m spanners.Mapping) bool {
			_, encErr = stdout.Write(append(service.EncodeMapping(doc, m), '\n'))
			return encErr == nil
		})
		return encErr

	case "list":
		if err := need(0, "list"); err != nil {
			return err
		}
		mans, err := reg.List()
		if err != nil {
			return err
		}
		for _, m := range mans {
			fmt.Fprintf(stdout, "%-24s %s  seq=%v vars=%v  %s\n",
				m.Name, m.Version, m.Sequential, m.Vars, m.Source)
		}
		return nil

	case "versions":
		if err := need(1, "versions NAME"); err != nil {
			return err
		}
		mans, err := reg.Versions(args[0])
		if err != nil {
			return err
		}
		for _, m := range mans {
			fmt.Fprintf(stdout, "%s  %s  %s\n", m.Ref(), m.CreatedAt.Format("2006-01-02T15:04:05Z"), m.Source)
		}
		return nil

	case "show":
		if err := need(1, "show NAME[@VERSION]"); err != nil {
			return err
		}
		name, version, err := registry.ParseRef(args[0])
		if err != nil {
			return err
		}
		man, err := reg.Manifest(name, version)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(man)

	case "export":
		if err := need(2, "export NAME[@VERSION] FILE"); err != nil {
			return err
		}
		name, version, err := registry.ParseRef(args[0])
		if err != nil {
			return err
		}
		artifact, man, err := reg.Artifact(name, version)
		if err != nil {
			return err
		}
		if args[1] == "-" {
			_, err = stdout.Write(artifact)
			return err
		}
		if err := os.WriteFile(args[1], artifact, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", man.Ref())
		return nil

	case "import":
		if err := need(2, "import NAME FILE"); err != nil {
			return err
		}
		artifact, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		man, _, err := reg.Put(args[0], artifact)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", man.Ref())
		return nil

	case "delete":
		if err := need(1, "delete NAME[@VERSION]"); err != nil {
			return err
		}
		name, version, err := registry.ParseRef(args[0])
		if err != nil {
			return err
		}
		return reg.Delete(name, version)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// planAlgebra parses and composes an algebra expression against the
// registry, offline — the same planner spand serves with.
func planAlgebra(reg *registry.Registry, expr string) (*algebra.Plan, error) {
	node, err := algebra.Parse(expr)
	if err != nil {
		return nil, err
	}
	return algebra.Build(node, &algebra.RegistryResolver{Reg: reg})
}

// dispatchRemote runs one verb against a live spand or spangate
// through the client package. The output format matches the offline
// dispatcher verb for verb, so scripts work against either mode.
func dispatchRemote(c *client.Client, cmd string, args []string, stdout io.Writer) error {
	ctx := context.Background()
	need := func(n int, usage string) error {
		if len(args) != n {
			return fmt.Errorf("usage: spanreg -addr URL %s", usage)
		}
		return nil
	}
	switch cmd {
	case "register", "register-algebra":
		if err := need(2, cmd+" NAME EXPR"); err != nil {
			return err
		}
		reg := c.RegisterSpanner
		if cmd == "register-algebra" {
			reg = c.RegisterAlgebra
		}
		man, _, err := reg(ctx, args[0], args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", man.Ref())
		return nil

	case "eval":
		if len(args) != 1 && len(args) != 2 {
			return fmt.Errorf("usage: spanreg -addr URL eval EXPR [DOC|-]")
		}
		text := ""
		if len(args) == 2 && args[1] != "-" {
			text = args[1]
		} else {
			b, err := io.ReadAll(os.Stdin)
			if err != nil {
				return err
			}
			text = string(b)
		}
		st, err := c.ExtractStream(ctx, client.StreamRequest{
			Query: client.Query{Algebra: args[0]},
			Doc:   text,
		})
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			line, err := st.NextRaw()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
				return err
			}
		}

	case "list":
		if err := need(0, "list"); err != nil {
			return err
		}
		mans, err := c.ListManifests(ctx)
		if err != nil {
			return err
		}
		for _, m := range mans {
			fmt.Fprintf(stdout, "%-24s %s  seq=%v vars=%v  %s\n",
				m.Name, m.Version, m.Sequential, m.Vars, m.Source)
		}
		return nil

	case "show":
		if err := need(1, "show NAME[@VERSION]"); err != nil {
			return err
		}
		name, version, err := registry.ParseRef(args[0])
		if err != nil {
			return err
		}
		man, err := c.GetManifest(ctx, name, version)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(man)

	case "delete":
		if err := need(1, "delete NAME[@VERSION]"); err != nil {
			return err
		}
		name, version, err := registry.ParseRef(args[0])
		if err != nil {
			return err
		}
		return c.DeleteSpanner(ctx, name, version)

	case "versions", "export", "import":
		return fmt.Errorf("%s works on the artifact store and needs -dir, not -addr", cmd)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
