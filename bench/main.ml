(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablation/validation experiments listed in
   DESIGN.md §3.

   Targets (run all by default, or select: `dune exec bench/main.exe -- t1 x4`):
     table1   (T1)  profiling overhead, LOOPS & SIMPLE, opt ON/OFF
     figure1  (F1)  the Fig. 1 statement-level CFG
     figure2  (F2)  the Fig. 2 extended CFG
     figure3  (F3)  the Fig. 3 annotated FCDG — TIME=920, STD_DEV=300
     counters (X1)  counter counts & dynamic updates: naive vs smart, per optimization
     sampling (X2)  PC-sampling vs counters at statement granularity
     accuracy (X3)  estimated TIME/STD_DEV vs measured mean/std over runs
     chunks   (X4)  variance-driven chunk size (Kruskal-Weiss) vs baselines
     static   (X5)  compile-time frequency analysis vs profiling
     wal      (P5)  crash-safe store: WAL append/recovery, compaction
     placement      smart counter placement wall time on 1k-8k-node wide CFGs
     wall           Bechamel wall-clock suite (one Test per table/figure) *)

module Interp = S89_vm.Interp
module CM = S89_vm.Cost_model
module Optimize = S89_vm.Optimize
module Program = S89_frontend.Program
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Naive = S89_profiling.Naive
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Report = S89_core.Report
module Stats = S89_util.Stats
module W = S89_workloads.Demos
module Pool = S89_exec.Pool
module Chunked = S89_exec.Chunked

(* work pool shared by the targets that distribute independent reps
   (accuracy's measurement runs, chunks' simulator replications);
   set from --domains N, defaults to sequential *)
let bench_pool = ref (Pool.create ~domains:1 ())

let section title =
  Fmt.pr "@.=============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "=============================================================@."

(* ---- machine-readable results (--json FILE) ----

   [timed] is the one way to measure anything here: wall seconds plus
   bytes allocated (Gc.allocated_bytes covers minor+major+external).
   Experiments push named entries onto [json_entries]; [write_json]
   emits them by hand (no JSON library in the image). *)

let timed f =
  (* settle the heap first so a run never pays major-GC debt (or works
     against a fragmented free list) left by the previous — possibly much
     more allocation-heavy — measurement *)
  Gc.compact ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  (r, wall, alloc)

(* best wall time over [reps] runs; the sub-10ms workloads need this or
   the speedup ratios are scheduler noise.  Allocation is deterministic
   per run, so the first run's figure stands. *)
let timed_best ~reps f =
  let r, w0, a0 = timed f in
  let best = ref w0 in
  for _ = 2 to reps do
    let _, w, _ = timed f in
    if w < !best then best := w
  done;
  (r, !best, a0)

(* two measurements whose ratio is the headline number: interleave the
   reps so transient background load degrades both sides alike *)
let timed_pair ~reps f g =
  let rf, wf0, af = timed f in
  let rg, wg0, ag = timed g in
  let wf = ref wf0 and wg = ref wg0 in
  for _ = 2 to reps do
    let _, w, _ = timed f in
    if w < !wf then wf := w;
    let _, w, _ = timed g in
    if w < !wg then wg := w
  done;
  ((rf, !wf, af), (rg, !wg, ag))

type json_field = Num of float | Int of int | Str of string

let json_entries : (string * (string * json_field) list) list ref = ref []

(* every row carries the VM backend that produced its headline number
   ("none" for rows that never run the VM, "all" for cross-backend
   comparisons) and the bytes allocated by that measurement *)
let record ?(backend = "compiled") ?(alloc = Float.nan) name fields =
  let fields = if Float.is_nan alloc then fields else ("alloc_bytes", Num alloc) :: fields in
  json_entries := (name, ("backend", Str backend) :: fields) :: !json_entries

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value = function
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Num x ->
      if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
      else Printf.sprintf "%.6g" x

let write_json file =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, fields) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "    { \"name\": \"%s\"" (json_escape name));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (Printf.sprintf ", \"%s\": %s" (json_escape k) (json_value v)))
        fields;
      Buffer.add_string buf " }")
    (List.rev !json_entries);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "@.wrote %d benchmark entries to %s@." (List.length !json_entries) file

let run_vm ?(instr = S89_vm.Probe.empty) ?(seed = 42) ?(backend = Interp.Compiled)
    ?plan ~cm prog =
  let config =
    { Interp.default_config with cost_model = cm; instr; seed; backend;
      emit_plan = plan }
  in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  vm

(* Sub-2% deltas (the probe overhead) sit below what even a best-of-9
   interleaved pair resolves: BENCH_PR6.json recorded *negative*
   overheads when background load happened to land on the instrumented
   side of the single pair.  Taking the median over several independent
   interleaved pairs discards those one-sided outliers; the first pair's
   results are returned for the cycle-parity checks. *)
let median_pair_delta ~pairs ~reps f g =
  let deltas = ref [] in
  let first = ref None in
  for _ = 1 to pairs do
    let ((_, wf, _), (_, wg, _)) as p = timed_pair ~reps f g in
    if !first = None then first := Some p;
    deltas := ((wg -. wf) /. wf) :: !deltas
  done;
  let a = Array.of_list !deltas in
  Array.sort compare a;
  (Option.get !first, a.(Array.length a / 2))

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — profiling overhead                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1: sequential execution times with and without profiling\n\
     (paper, IBM 3090 CPU seconds, opt ON: LOOPS 0.05/0.06/0.08, SIMPLE \
     3.8/4.2/4.4)\n\
     (ours: simulated cycles on the cost-model VM; wall seconds in parens;\n\
     last columns: wall-clock speedup of the compiled backend over the tree\n\
     walker, and of the bytecode backend over the compiled one, on the\n\
     uninstrumented run)";
  let programs =
    [ ("LOOPS", S89_workloads.Livermore.source);
      ("SIMPLE", S89_workloads.Simple_code.source ()) ]
  in
  Fmt.pr "@.%-8s %-8s %20s %28s %28s %10s %10s@." "Program" "Compiler"
    "Original" "Smart profiling" "Naive profiling" "vs tree" "bc/comp";
  List.iter
    (fun (name, src) ->
      let base = Program.of_source src in
      let opt = Optimize.program base in
      List.iter
        (fun (mode, prog, cm) ->
          let smart = Placement.plan (Analysis.of_program prog) in
          let naive = Naive.plan prog in
          let run backend instr =
            timed_best ~reps:5 (fun () -> run_vm ~backend ~cm ~instr prog)
          in
          let (vm0, w0, a0), (vmt, wt, at) =
            timed_pair ~reps:5
              (fun () ->
                run_vm ~backend:Interp.Compiled ~cm ~instr:S89_vm.Probe.empty
                  prog)
              (fun () ->
                run_vm ~backend:Interp.Tree ~cm ~instr:S89_vm.Probe.empty prog)
          in
          let c0 = Interp.cycles vm0 in
          let vm1, w1, _ = run Interp.Compiled (Placement.probes smart) in
          let c1 = Interp.cycles vm1 in
          let vm2, w2, _ = run Interp.Compiled (Naive.probes naive) in
          let c2 = Interp.cycles vm2 in
          (* bytecode backend: interleaved against compiled so the
             headline ratio samples the same load profile *)
          let (_, w0c, _), (vmb, wb, ab) =
            timed_pair ~reps:5
              (fun () ->
                run_vm ~backend:Interp.Compiled ~cm ~instr:S89_vm.Probe.empty
                  prog)
              (fun () ->
                run_vm ~backend:Interp.Bytecode ~cm ~instr:S89_vm.Probe.empty
                  prog)
          in
          (* smart-probe overhead is ~1-2%, far below run-to-run wall
             noise, so it comes from interleaved best-of-9 pairs — and
             the median over 5 independent pairs, which is what keeps a
             single load spike from producing a negative overhead *)
          let ((_, _wbp, _), (vm1b, w1b, _)), probe_overhead_bc =
            median_pair_delta ~pairs:5 ~reps:9
              (fun () ->
                run_vm ~backend:Interp.Bytecode ~cm ~instr:S89_vm.Probe.empty
                  prog)
              (fun () ->
                run_vm ~backend:Interp.Bytecode ~cm
                  ~instr:(Placement.probes smart) prog)
          in
          (* the PGO loop: plan + reoptimize from one profiled run.  The
             plan alone (inlining, layout, intrinsics) is observationally
             invisible, so running it on the *same* program isolates the
             wall-clock win over the PR6-era conservative emission; the
             reoptimized program carries the predicted/measured cycle
             delta (the estimator predicting its own speedup) *)
          let t = Pipeline.create prog in
          let pr = Pipeline.pgo ~cost_model:cm ~seed:42 t in
          let (vmb6, wb6, _), (vmbp, wbpgo, _) =
            timed_pair ~reps:5
              (fun () ->
                run_vm ~backend:Interp.Bytecode ~cm
                  ~plan:S89_vm.Emit.conservative_plan prog)
              (fun () ->
                run_vm ~backend:Interp.Bytecode ~cm ~plan:pr.Pipeline.pgo_plan
                  prog)
          in
          let fallback_pr6 = Interp.fallback_execs vmb6 in
          let fallback_pgo = Interp.fallback_execs vmbp in
          if Interp.cycles vmb6 <> c0 || Interp.cycles vmbp <> c0 then
            Fmt.pr
              "!! emission-plan cycle mismatch on %s/%s: conservative %d / pgo \
               %d vs %d@."
              name mode (Interp.cycles vmb6) (Interp.cycles vmbp) c0;
          if Interp.cycles vmt <> c0 then
            Fmt.pr "!! backend cycle mismatch on %s/%s: tree %d vs compiled %d@."
              name mode (Interp.cycles vmt) c0;
          if Interp.cycles vmb <> c0 then
            Fmt.pr
              "!! backend cycle mismatch on %s/%s: bytecode %d vs compiled %d@."
              name mode (Interp.cycles vmb) c0;
          if Interp.cycles vm1b <> c1 then
            Fmt.pr
              "!! smart-profiling cycle mismatch on %s/%s: bytecode %d vs \
               compiled %d@."
              name mode (Interp.cycles vm1b) c1;
          let speedup = wt /. w0 in
          let speedup_bc = w0c /. wb in
          let speedup_pgo = wb6 /. wbpgo in
          record ~backend:"all" ~alloc:a0
            (Printf.sprintf "table1/%s/%s" name mode)
            [
              ("cycles_original", Int c0);
              ("cycles_smart", Int c1);
              ("cycles_naive", Int c2);
              ("wall_s_compiled", Num w0);
              ("wall_s_smart", Num w1);
              ("wall_s_naive", Num w2);
              ("wall_s_tree", Num wt);
              ("wall_s_bytecode", Num wb);
              ("wall_s_smart_bytecode", Num w1b);
              ("alloc_bytes_compiled", Num a0);
              ("alloc_bytes_tree", Num at);
              ("alloc_bytes_bytecode", Num ab);
              ("speedup_vs_tree", Num speedup);
              ("speedup_bytecode_vs_compiled", Num speedup_bc);
              ("probe_overhead_bytecode", Num probe_overhead_bc);
              ("wall_s_bytecode_pr6", Num wb6);
              ("wall_s_bytecode_pgo", Num wbpgo);
              ("speedup_pgo_vs_pr6", Num speedup_pgo);
              ("fallback_execs", Int fallback_pr6);
              ("fallback_execs_pgo", Int fallback_pgo);
              ("cycles_pgo", Int pr.Pipeline.pgo_cycles_after);
              ("pgo_predicted_delta", Int pr.Pipeline.pgo_predicted_delta);
              ("pgo_measured_delta", Int pr.Pipeline.pgo_measured_delta);
              ("pgo_prediction_error", Num (Pipeline.pgo_accuracy pr));
            ];
          let pct a = 100.0 *. float_of_int (a - c0) /. float_of_int c0 in
          Fmt.pr
            "%-8s %-8s %12d (%4.1fs) %14d +%4.1f%% (%4.1fs) %14d +%4.1f%% (%4.1fs) %8.1fx %9.1fx@."
            name mode c0 w0 c1 (pct c1) w1 c2 (pct c2) w2 speedup speedup_bc;
          Fmt.pr
            "         pgo: %5.2fx vs PR6 emission, fallbacks %d -> %d, \
             predicted/measured delta %d/%d@."
            speedup_pgo fallback_pr6 fallback_pgo pr.Pipeline.pgo_predicted_delta
            pr.Pipeline.pgo_measured_delta)
        [ ("opt-ON", opt, CM.optimized); ("opt-OFF", base, CM.unoptimized) ])
    programs;
  Fmt.pr
    "@.shape check: smart overhead < naive overhead; both small against the@.\
     opt ON/OFF gap - matching the paper's Table 1 ordering.@."

(* ------------------------------------------------------------------ *)
(* F1-F3: the worked example                                           *)
(* ------------------------------------------------------------------ *)

let fig1_pipeline () =
  let t = Pipeline.of_source (W.fig1 ()) in
  let a = Hashtbl.find t.Pipeline.analyses "FIG1" in
  (t, a)

let figure1 () =
  section "Figure 1: original control flow graph (statement level)";
  let t, _ = fig1_pipeline () in
  let p = Program.find t.Pipeline.prog "FIG1" in
  Fmt.pr "%a@."
    (S89_cfg.Cfg.pp ~pp_info:(fun fmt i -> Fmt.pf fmt " {%a}" S89_frontend.Ir.pp_info i))
    p.Program.cfg;
  Fmt.pr "@.DOT:@.%s@." (Report.cfg_dot p)

let figure2 () =
  section "Figure 2: extended control flow graph (preheaders, postexits, START/STOP)";
  let _, a = fig1_pipeline () in
  Fmt.pr "%a@."
    (S89_cfg.Ecfg.pp ~pp_info:(fun fmt i -> Fmt.pf fmt " {%a}" S89_frontend.Ir.pp_info i))
    a.Analysis.ecfg;
  Fmt.pr "@.DOT:@.%s@." (Report.ecfg_dot a)

(* the exact profile and costs of the paper's worked example *)
let figure3_estimate () =
  let t, a = fig1_pipeline () in
  let ecfg = a.Analysis.ecfg in
  let start = S89_cfg.Ecfg.start ecfg in
  let ph = S89_cfg.Ecfg.preheader_of_header ecfg 3 in
  let u = S89_cfg.Label.U and tt = S89_cfg.Label.T and ff = S89_cfg.Label.F in
  let fig1_totals = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace fig1_totals k v)
    [ ((start, u), 1); ((ph, u), 10); ((3, tt), 5); ((3, ff), 5); ((4, tt), 1);
      ((4, ff), 4); ((5, tt), 0); ((5, ff), 5) ];
  let a2 = Hashtbl.find t.Pipeline.analyses "FOO" in
  let foo_totals = Hashtbl.create 4 in
  Hashtbl.replace foo_totals (S89_cfg.Ecfg.start a2.Analysis.ecfg, u) 9;
  let totals = function "FIG1" -> fig1_totals | _ -> foo_totals in
  let cost_override name node =
    match (name, node) with
    | "FIG1", (3 | 4 | 5) -> 1.0 (* the IF nodes *)
    | "FOO", 1 -> 100.0 (* makes TIME(FOO) = 100, the paper's CALL cost *)
    | _ -> 0.0
  in
  (t, Pipeline.estimate_totals t ~totals ~cost_override)

let figure3 () =
  section
    "Figure 3: FCDG with <FREQ, TOTAL_FREQ> and [COST, TIME, E[T2], VAR, STD_DEV]\n\
     (paper: TIME(START) = 920, STD_DEV(START) = 300)";
  let _, est = figure3_estimate () in
  Fmt.pr "%a@." Report.pp est;
  let time = Interproc.program_time est and sd = Interproc.program_std_dev est in
  Fmt.pr "@.headline: TIME(START)=%g (paper: 920)   STD_DEV(START)=%g (paper: 300)  %s@."
    time sd
    (if Float.abs (time -. 920.0) < 1e-6 && Float.abs (sd -. 300.0) < 1e-6 then
       "[EXACT MATCH]"
     else "[MISMATCH]");
  Fmt.pr "@.DOT:@.%s@." (Report.fcdg_dot (Interproc.main_est est))

(* ------------------------------------------------------------------ *)
(* X1: counter-count ablation                                          *)
(* ------------------------------------------------------------------ *)

let counters () =
  section
    "X1: counters and dynamic counter updates - naive vs smart, per optimization\n\
     (opt1 = counter per control condition; opt2 = conservation laws;\n\
     opt3 = DO-loop bulk adds)";
  let programs =
    [ ("FIG1", W.fig1 ()); ("BRANCHY", W.branchy ()); ("CGOTO", W.computed_goto ());
      ("LOOPS", S89_workloads.Livermore.source);
      ("SIMPLE", S89_workloads.Simple_code.source ~n:40 ~cycles:3 ()) ]
  in
  Fmt.pr "@.%-8s | %22s | %22s | %22s | %22s@." "Program" "naive (blocks)"
    "smart opt1" "smart opt1+2" "smart opt1+2+3";
  Fmt.pr "%s@." (String.make 110 '-');
  List.iter
    (fun (name, src) ->
      let prog = Program.of_source src in
      let analyses = Analysis.of_program prog in
      let vm = run_vm ~cm:CM.optimized prog in
      let naive = Naive.plan prog in
      let cell (plan : Placement.t) =
        Fmt.str "%4d ctr %10d upd" (Placement.n_counters plan)
          (Placement.dynamic_updates plan vm)
      in
      let p1 = Placement.plan ~opt2:false ~opt3:false analyses in
      let p12 = Placement.plan ~opt2:true ~opt3:false analyses in
      let p123 = Placement.plan ~opt2:true ~opt3:true analyses in
      Fmt.pr "%-8s | %4d ctr %10d upd | %s | %s | %s@." name (Naive.n_counters naive)
        (Naive.dynamic_updates naive prog vm)
        (cell p1) (cell p12) (cell p123))
    programs

(* ------------------------------------------------------------------ *)
(* X2: sampling vs counters                                            *)
(* ------------------------------------------------------------------ *)

let sampling () =
  section
    "X2: simulated PC-sampling vs exact counters, statement granularity\n\
     (the 3rd-section argument: \"the coarse granularity of the sampling\n\
     interval makes this approach unsuitable for determining execution\n\
     frequencies of individual statements\")";
  let src = S89_workloads.Simple_code.source ~n:40 ~cycles:3 () in
  let prog = Program.of_source src in
  Fmt.pr "@.%-16s %14s %16s %20s@." "sample interval" "samples" "mean rel.err"
    "zero-sample stmts";
  List.iter
    (fun interval ->
      let config =
        { Interp.default_config with cost_model = CM.optimized;
          sample_interval = Some interval }
      in
      let vm = Interp.create ~config prog in
      ignore (Interp.run vm);
      let total_samples = Interp.cycles vm / interval in
      let err = Stats.create () in
      let zero = ref 0 and considered = ref 0 in
      List.iter
        (fun (p : Program.proc) ->
          S89_cfg.Cfg.iter_nodes
            (fun nd ->
              let execs = Interp.node_execs vm p.Program.name nd in
              let cost =
                CM.node_cost CM.optimized
                  (S89_cfg.Cfg.info p.Program.cfg nd).S89_frontend.Ir.ir
              in
              if execs > 0 && cost > 0 then begin
                incr considered;
                let samples = Interp.node_samples vm p.Program.name nd in
                if samples = 0 then incr zero;
                (* frequency estimate from samples: execs ~ samples*interval/cost *)
                let est =
                  float_of_int samples *. float_of_int interval /. float_of_int cost
                in
                Stats.add err (Stats.rel_err est (float_of_int execs))
              end)
            p.Program.cfg)
        (Program.procs prog);
      Fmt.pr "%-16d %14d %15.1f%% %13d / %3d@." interval total_samples
        (100.0 *. Stats.mean err) !zero !considered)
    [ 10; 100; 1_000; 10_000; 100_000 ];
  Fmt.pr
    "@.counters give exact per-statement frequencies at a few %% run-time cost;@.\
     realistic sampling intervals miss many statements entirely.@."

(* ------------------------------------------------------------------ *)
(* X3: estimator accuracy                                              *)
(* ------------------------------------------------------------------ *)

let accuracy () =
  section
    "X3: estimated TIME / STD_DEV vs measured mean / std-dev over seeded runs\n\
     (TIME estimated from an accumulated smart-counter profile; measurement\n\
     is the uninstrumented cycle count of runs with the same seeds)";
  let cases =
    [ ("BRANCHY", W.branchy (), 60); ("CHUNKY", W.chunky (), 60);
      ("NESTED", W.nested_random (), 60); ("CGOTO", W.computed_goto (), 60);
      ("SORT", W.sort (), 60); ("SIEVE", W.sieve (), 60);
      ("LINPACK", S89_workloads.Linpack_like.source (), 30);
      ("LOOPS", S89_workloads.Livermore.source, 8) ]
  in
  Fmt.pr "@.%-8s %14s %14s %7s | %12s %12s %12s@." "Program" "est TIME" "meas mean"
    "err" "SD paper" "SD indep" "SD meas";
  List.iter
    (fun (name, src, runs) ->
      let t = Pipeline.of_source src in
      (* independent seeded measurement runs, distributed over the bench
         pool (--domains N).  Each run's cycle count depends only on its
         seed and the fold below is in seed order, so the Stats are
         identical at any domain count. *)
      let cycles =
        Pool.map !bench_pool
          (fun s ->
            float_of_int (Interp.cycles (Pipeline.run_once ~seed:(1001 + s) t)))
          (Array.init runs (fun s -> s))
      in
      let st = Stats.of_list (Array.to_list cycles) in
      let profile = Pipeline.profile_smart ~runs ~seed:1001 t in
      (* the paper's formula (Case 1 with FREQ², iterations fully correlated)
         and the Wald-identity variant (independent iterations), both with
         callee-variance propagation enabled *)
      let est = Pipeline.estimate_profiled ~call_variance:true t profile in
      let est_ind =
        Pipeline.estimate_profiled ~call_variance:true
          ~iteration_model:S89_core.Variance.Independent t profile
      in
      let time = Interproc.program_time est in
      Fmt.pr "%-8s %14.1f %14.1f %6.2f%% | %12.1f %12.1f %12.1f@." name time
        (Stats.mean st)
        (100.0 *. Stats.rel_err time (Stats.mean st))
        (Interproc.program_std_dev est)
        (Interproc.program_std_dev est_ind)
        (Stats.std_dev st))
    cases;
  Fmt.pr
    "@.TIME matches the measured mean almost exactly (same seeds feed both).@.\
     'SD paper' is the paper's Case-1 formula (FREQ^2: iterations fully@.\
     correlated - a conservative upper bound, ~sqrt(F) above iid reality);@.\
     'SD indep' is the Wald-identity variant for independent iterations.@."

(* ------------------------------------------------------------------ *)
(* X4: variance-driven chunking                                        *)
(* ------------------------------------------------------------------ *)

let chunks () =
  section
    "X4: chunk size for parallel loops (Kruskal-Weiss, the paper's use case)\n\
     simulated makespan, N=10000 iterations, mean 100 cycles, overhead h=50";
  let n = 10_000 and mu = 100.0 and h = 50.0 in
  Fmt.pr "@.%-4s %-6s | %8s | %12s %12s %12s | %8s@." "P" "cv" "KW k"
    "static N/P" "self-sched" "KW chunk" "KW win";
  Fmt.pr "%s@." (String.make 80 '-');
  List.iter
    (fun p ->
      List.iter
        (fun cv ->
          let sigma = cv *. mu in
          let dist = S89_sched.Dist.of_moments ~mean:mu ~variance:(sigma *. sigma) in
          let k = S89_sched.Chunk.kw_chunk ~n ~p ~h ~sigma in
          let avg strat =
            Stats.mean
              (S89_sched.Parsim.run_avg ~seeds:8 ~map:(Pool.map_list !bench_pool)
                 ~n ~p ~h ~dist strat)
          in
          let m_static = avg S89_sched.Chunk.Static_split in
          let m_self = avg S89_sched.Chunk.Self_sched in
          let m_kw = avg (S89_sched.Chunk.Fixed k) in
          let best_baseline = Float.min m_static m_self in
          Fmt.pr "%-4d %-6.2g | %8d | %12.0f %12.0f %12.0f | %+6.1f%%@." p cv k
            m_static m_self m_kw
            (100.0 *. (best_baseline -. m_kw) /. best_baseline))
        [ 0.0; 0.1; 0.5; 1.0; 2.0 ])
    [ 4; 16; 64 ];
  (* estimator-driven: derive mu/sigma of the CHUNKY loop body from the
     paper's TIME/VAR machinery, then chunk accordingly *)
  Fmt.pr "@.-- estimator-driven chunking of the CHUNKY loop body --@.";
  let t = Pipeline.of_source (W.chunky ()) in
  let profile = Pipeline.profile_smart ~runs:20 t in
  let est = Pipeline.estimate_profiled t profile in
  let pe = Interproc.main_est est in
  let a = pe.Interproc.analysis in
  List.iter
    (fun hd ->
      let body = S89_cdg.Fcdg.children a.Analysis.fcdg hd S89_cfg.Label.T in
      let time =
        List.fold_left
          (fun acc v -> acc +. S89_core.Time_est.time pe.Interproc.time v)
          0.0 body
      in
      let var =
        List.fold_left
          (fun acc v -> acc +. S89_core.Variance.var pe.Interproc.variance v)
          0.0 body
      in
      if time > 50.0 && var > 0.0 then begin
        let nf = 10_000 and p = 16 and hov = 50.0 in
        let k = S89_sched.Chunk.from_estimate ~time ~var ~n:nf ~p ~h:hov in
        Fmt.pr
          "loop@%d: per-iteration TIME=%.1f STD=%.1f -> KW chunk=%d (N/P would be %d)@."
          hd time (sqrt var) k
          (S89_sched.Chunk.static_chunk ~n:nf ~p);
        let dist = S89_sched.Dist.of_moments ~mean:time ~variance:var in
        List.iter
          (fun (nm, strat) ->
            let m =
              Stats.mean
                (S89_sched.Parsim.run_avg ~seeds:8
                   ~map:(Pool.map_list !bench_pool) ~n:nf ~p ~h:hov ~dist strat)
            in
            Fmt.pr "  %-14s makespan %.0f@." nm m)
          [ ("static-N/P", S89_sched.Chunk.Static_split);
            ("self-sched-1", S89_sched.Chunk.Self_sched);
            ("kruskal-weiss", S89_sched.Chunk.Fixed k) ]
      end)
    (S89_cfg.Ecfg.headers a.Analysis.ecfg)

(* ------------------------------------------------------------------ *)
(* P3: Domain work-pool scaling                                        *)
(* ------------------------------------------------------------------ *)

let stats_equal a b =
  Stats.count a = Stats.count b
  && Stats.mean a = Stats.mean b
  && Stats.variance a = Stats.variance b
  && Stats.min a = Stats.min b
  && Stats.max a = Stats.max b

let scaling () =
  section
    "P3: Domain work-pool scaling (1/2/4 domains vs sequential)\n\
     three hot paths: Parsim.run_avg replications, batch VM measurement\n\
     runs (Chunked.map with the self-tuned Kruskal-Weiss chunk), and the\n\
     per-procedure ECFG->CDG->FCDG analysis pipelines.  Every parallel\n\
     run is checked identical to the sequential one.";
  let host = Domain.recommended_domain_count () in
  Fmt.pr "@.host cores (Domain.recommended_domain_count): %d%s@." host
    (if host = 1 then "  [single core: parallel rows measure pure overhead]"
     else "");
  let row ?backend ?alloc name d w_seq w_par same =
    record ?backend ?alloc
      (Printf.sprintf "scaling/%s/d%d" name d)
      [
        ("domains", Int d);
        ("wall_s_seq", Num w_seq);
        ("wall_s_parallel", Num w_par);
        ("parallel_speedup", Num (w_seq /. w_par));
        ("identical", Int (if same then 1 else 0));
      ];
    Fmt.pr "%-18s %8d %11.4f %11.4f %9.2fx%s@." name d w_seq w_par
      (w_seq /. w_par)
      (if same then "" else "  [MISMATCH]")
  in
  Fmt.pr "@.%-18s %8s %11s %11s %10s@." "workload" "domains" "seq (s)"
    "par (s)" "speedup";
  Fmt.pr "%s@." (String.make 64 '-');
  (* -- 1: Parsim.run_avg seeded replications -- *)
  let n = 50_000 and p = 16 and h = 50.0 and seeds = 64 in
  let dist = S89_sched.Dist.Exponential { mean = 100.0 } in
  let run_avg ?map () =
    S89_sched.Parsim.run_avg ?map ~seeds ~n ~p ~h ~dist
      S89_sched.Chunk.Kruskal_weiss
  in
  let st0, w_seq, a_seq = timed_best ~reps:3 (fun () -> run_avg ()) in
  List.iter
    (fun d ->
      let pool = Pool.create ~force_parallel:(d > 1) ~domains:d () in
      let st, w_par, _ =
        timed_best ~reps:3 (fun () -> run_avg ~map:(Pool.map_list pool) ())
      in
      row ~backend:"none" ~alloc:a_seq "parsim.run_avg" d w_seq w_par
        (stats_equal st0 st))
    [ 1; 2; 4 ];
  (* -- 2: batch VM measurement runs via Chunked.map (KW self-chunking) -- *)
  let t = Pipeline.of_source (W.chunky ()) in
  let seeds_arr = Array.init 32 (fun s -> 1001 + s) in
  let one_run s = Interp.cycles (Pipeline.run_once ~seed:s t) in
  let c0, w_seq, a_seq =
    timed_best ~reps:3 (fun () -> Array.map one_run seeds_arr)
  in
  List.iter
    (fun d ->
      let pool = Pool.create ~force_parallel:(d > 1) ~domains:d () in
      let c, w_par, _ =
        timed_best ~reps:3 (fun () -> Chunked.map pool one_run seeds_arr)
      in
      row ~alloc:a_seq "vm.batch-runs" d w_seq w_par (c = c0))
    [ 1; 2; 4 ];
  (* -- 3: per-procedure analysis pipelines (LOOPS + SIMPLE) -- *)
  let progs =
    [
      Program.of_source S89_workloads.Livermore.source;
      Program.of_source (S89_workloads.Simple_code.source ());
    ]
  in
  let analyze pool = List.map (fun prog -> Analysis.of_program ?pool prog) progs in
  let same_analyses a b =
    List.for_all2
      (fun ta tb ->
        Hashtbl.length ta = Hashtbl.length tb
        && Hashtbl.fold
             (fun name (x : Analysis.t) acc ->
               acc
               &&
               match Hashtbl.find_opt tb name with
               | None -> false
               | Some (y : Analysis.t) -> x.Analysis.conditions = y.Analysis.conditions)
             ta true)
      a b
  in
  let a0, w_seq, a_seq = timed_best ~reps:3 (fun () -> analyze None) in
  List.iter
    (fun d ->
      let pool = Pool.create ~force_parallel:(d > 1) ~domains:d () in
      let a, w_par, _ = timed_best ~reps:3 (fun () -> analyze (Some pool)) in
      row ~backend:"none" ~alloc:a_seq "analysis.pipeline" d w_seq w_par
        (same_analyses a0 a))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* P4: guard overhead                                                  *)
(* ------------------------------------------------------------------ *)

let guards () =
  section
    "P4: execution-guard overhead (fuel / cycle budget / call depth)\n\
     uninstrumented compiled-backend runs of Table 1's programs, default\n\
     config (guards at their max_int sentinels) vs explicitly configured\n\
     finite limits high enough never to trip - the delta is the price of\n\
     guarded execution";
  let programs =
    [ ("LOOPS", S89_workloads.Livermore.source);
      ("SIMPLE", S89_workloads.Simple_code.source ()) ]
  in
  Fmt.pr "@.%-8s %14s %14s %12s@." "Program" "default (s)" "limited (s)"
    "overhead";
  List.iter
    (fun (name, src) ->
      let prog = Optimize.program (Program.of_source src) in
      let cm = CM.optimized in
      let limited =
        {
          Interp.default_config with
          cost_model = cm;
          max_steps = max_int / 2;
          max_cycles = max_int / 2;
          max_call_depth = 1_000_000;
        }
      in
      let run config () =
        let vm = Interp.create ~config prog in
        ignore (Interp.run vm);
        vm
      in
      let run_def = run { Interp.default_config with cost_model = cm }
      and run_lim = run limited in
      (* the two sides execute IDENTICAL code paths (the guards are
         always-on comparisons against max_int sentinels), so the honest
         estimate of the overhead needs the noise floor well under the
         2% budget.  Per-side minima don't get there on a shared box:
         background load can shadow one side for a whole run.  Instead,
         interleave single runs pairwise with alternating order
         (A B / B A / ...) so both sides sample the same load profile,
         and take the ratio of the two SUMS — drift and spikes then hit
         numerator and denominator alike and cancel in the ratio *)
      let vm0 = run_def () and vm1 = run_lim () in
      let _, t_once, a_def = timed run_def in
      let pairs = max 16 (int_of_float (Float.ceil (4.0 /. t_once))) in
      (* keep the pair count even so the two orders are balanced *)
      let pairs = pairs + (pairs land 1) in
      let ratios = Array.make pairs 1.0 in
      let sum_def = ref 0.0 and sum_lim = ref 0.0 in
      for i = 0 to pairs - 1 do
        let wd, wl =
          if i mod 2 = 0 then
            let _, wd, _ = timed run_def in
            let _, wl, _ = timed run_lim in
            (wd, wl)
          else
            let _, wl, _ = timed run_lim in
            let _, wd, _ = timed run_def in
            (wd, wl)
        in
        ratios.(i) <- wl /. wd;
        sum_def := !sum_def +. wd;
        sum_lim := !sum_lim +. wl
      done;
      let w_def = !sum_def /. float_of_int pairs
      and w_lim = !sum_lim /. float_of_int pairs in
      (* trimmed mean of the per-pair ratios: a load spike during one
         run contaminates exactly one pair, and trimming the quartiles
         discards it; the remaining drift bias alternates sign with the
         pair order, so the balanced middle half averages it away *)
      Array.sort compare ratios;
      let lo = pairs / 4 and hi = pairs - (pairs / 4) in
      let acc = ref 0.0 in
      for i = lo to hi - 1 do
        acc := !acc +. ratios.(i)
      done;
      let ratio = !acc /. float_of_int (hi - lo) in
      if Interp.cycles vm0 <> Interp.cycles vm1 then
        Fmt.pr "!! cycle mismatch on %s: default %d vs limited %d@." name
          (Interp.cycles vm0) (Interp.cycles vm1);
      let overhead = ratio -. 1.0 in
      record ~alloc:a_def
        (Printf.sprintf "guards/%s" name)
        [
          ("wall_s_default", Num w_def);
          ("wall_s_limited", Num w_lim);
          ("guard_overhead", Num overhead);
        ];
      Fmt.pr "%-8s %14.4f %14.4f %+11.2f%%@." name w_def w_lim
        (100.0 *. overhead))
    programs;
  Fmt.pr
    "@.the guards are branch-predictable comparisons on the hot accounting@.\
     path; configuring finite limits must cost within noise of the default.@."

(* ------------------------------------------------------------------ *)
(* X5: compile-time analysis vs profiling                              *)
(* ------------------------------------------------------------------ *)

let static_analysis () =
  section
    "X5: compile-time frequency analysis vs profiling (the first paragraph\n\
     of the paper's section 3: analysis is feasible for \"a Fortran DO loop\n\
     with constant bounds and no conditional loop exits, an IF condition\n\
     that can be computed at compile-time\" - and needs profiles elsewhere)";
  Fmt.pr "@.%-8s %14s %14s %8s   %s@." "Program" "static TIME" "profiled TIME"
    "ratio" "why";
  List.iter
    (fun (name, src, why) ->
      let prog = Optimize.program (Program.of_source src) in
      let t = Pipeline.create prog in
      let est_static =
        Pipeline.estimate_totals t
          ~totals:(S89_core.Static_freq.program_totals t.Pipeline.analyses)
      in
      let vm = Pipeline.run_once ~seed:3 t in
      let est_oracle = Pipeline.estimate_oracle t vm in
      let s = Interproc.program_time est_static in
      let p = Interproc.program_time est_oracle in
      Fmt.pr "%-8s %14.0f %14.0f %8.2f   %s@." name s p (s /. p) why)
    [ ("SIMPLE", S89_workloads.Simple_code.source ~n:30 ~cycles:3 (),
       "constant mesh loops: fully analyzable");
      ("LOOPS", S89_workloads.Livermore.source,
       "mostly constant DO nests; GOTO loops need the heuristic");
      ("BRANCHY", W.branchy (), "constant trip, 50/50 branch heuristic vs data");
      ("CHUNKY", W.chunky (), "20%-taken heavy branch modeled as 50/50");
      ("FIG1", W.fig1 (), "GOTO loop: default loop frequency 10 vs actual 3") ];
  Fmt.pr
    "@.constant-bound programs are estimated well with no profile at all;@.\
     data-dependent branching is why the paper profiles.@."

(* ------------------------------------------------------------------ *)
(* P5: crash-safe store costs                                          *)
(* ------------------------------------------------------------------ *)

let wal_bench () =
  section
    "P5: WAL persistence costs (crash-safe store)\n\
     append throughput without fsync (the framing + checksum price),\n\
     recovery of the resulting log, and snapshot compaction";
  let module Wal = S89_store.Wal in
  let module Store = S89_store.Store in
  let with_tmp_dir f =
    let dir = Filename.temp_file "s89bench" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  with_tmp_dir @@ fun dir ->
  let n = 20_000 in
  let payload i = Printf.sprintf "run %d\ntotal MAIN 1 T %d\ntotal MAIN 4 F %d" i i (i * 7) in
  let path = Filename.concat dir "bench.log" in
  let _, w_append, a_append =
    timed (fun () ->
        let w, _ = Wal.open_ ~fsync:false path in
        for i = 0 to n - 1 do
          Wal.append w (payload i)
        done;
        Wal.close w)
  in
  let r, w_recover, a_recover = timed (fun () -> Wal.recover path) in
  Fmt.pr "@.%-34s %10d records@." "log size" n;
  Fmt.pr "%-34s %10.0f records/s  (%.2f us/record)@." "append (no fsync)"
    (float_of_int n /. w_append)
    (1e6 *. w_append /. float_of_int n);
  Fmt.pr "%-34s %10.0f records/s  (%.3f s total)@." "recovery scan"
    (float_of_int (List.length r.Wal.payloads) /. w_recover)
    w_recover;
  record ~backend:"none" ~alloc:a_append "wal/append"
    [ ("records", Int n); ("wall_s", Num w_append);
      ("records_per_s", Num (float_of_int n /. w_append)) ];
  record ~backend:"none" ~alloc:a_recover "wal/recover"
    [ ("records", Int (List.length r.Wal.payloads)); ("wall_s", Num w_recover);
      ("records_per_s", Num (float_of_int (List.length r.Wal.payloads) /. w_recover)) ];
  Sys.remove path;
  (* store-level: run appends through accumulate + auto-compaction *)
  let totals =
    let tbl = Hashtbl.create 4 in
    List.iter (fun c -> Hashtbl.replace tbl c 3)
      [ (1, S89_cfg.Label.T); (4, S89_cfg.Label.F); (9, S89_cfg.Label.U) ];
    let per_proc = Hashtbl.create 1 in
    Hashtbl.replace per_proc "MAIN" tbl;
    per_proc
  in
  let sdir = Filename.concat dir "store" in
  let runs = 4_096 in
  let s = Store.open_ ~fsync:false ~compact_threshold:256 ~dir:sdir () in
  let _, w_store, a_store =
    timed (fun () ->
        for i = 0 to runs - 1 do
          Store.append_run s ~seed:i totals
        done)
  in
  let _, w_compact, a_compact = timed (fun () -> Store.compact s) in
  Store.close s;
  let _, w_reopen, a_reopen =
    timed (fun () -> Store.close (Store.open_ ~fsync:false ~dir:sdir ()))
  in
  Array.iter
    (fun x -> try Sys.remove (Filename.concat sdir x) with Sys_error _ -> ())
    (Sys.readdir sdir);
  (try Unix.rmdir sdir with Unix.Unix_error _ -> ());
  Fmt.pr "%-34s %10.0f runs/s  (threshold 256, %d runs)@." "store append+auto-compact"
    (float_of_int runs /. w_store)
    runs;
  Fmt.pr "%-34s %10.4f s@." "final compaction" w_compact;
  Fmt.pr "%-34s %10.4f s@." "recovery (open after close)" w_reopen;
  record ~backend:"none" ~alloc:a_store "wal/store_append"
    [ ("runs", Int runs); ("wall_s", Num w_store);
      ("runs_per_s", Num (float_of_int runs /. w_store)) ];
  record ~backend:"none" ~alloc:a_compact "wal/compact"
    [ ("wall_s", Num w_compact) ];
  record ~backend:"none" ~alloc:a_reopen "wal/reopen"
    [ ("wall_s", Num w_reopen) ]

(* ------------------------------------------------------------------ *)
(* P9: TCP service latency + overload shedding                         *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  section
    "P9: multi-tenant TCP service\n\
     steady-state job latency (p50/p99 from the server histogram) and\n\
     overload behaviour (NET001 shedding once the tenant queue fills)";
  let module Server = S89_net.Server in
  let module Proto = S89_net.Proto in
  let with_tmp_root f =
    let dir = Filename.temp_file "s89serve" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let rec rm_rf p =
      if Sys.is_directory p then (
        Array.iter (fun x -> rm_rf (Filename.concat p x)) (Sys.readdir p);
        Unix.rmdir p)
      else Sys.remove p
    in
    Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)
  in
  let rpc port req =
    let fd = Server.Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Server.Client.close fd) (fun () ->
        match Server.Client.rpc fd req with
        | Ok resp -> resp
        | Error msg -> failwith ("serve bench rpc: " ^ msg))
  in
  (* scrape one value out of the /metrics text document *)
  let metric text name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           if String.length line > String.length name
              && String.sub line 0 (String.length name) = name
              && line.[String.length name] = ' '
           then
             float_of_string_opt
               (String.sub line
                  (String.length name + 1)
                  (String.length line - String.length name - 1))
           else None)
    |> Option.value ~default:Float.nan
  in
  let source = W.fig1 () in
  let tenants = [| "acme"; "bravo"; "corp" |] in
  (* -------- steady state: every job admitted, latency histogram ---- *)
  with_tmp_root (fun root ->
      let server =
        Server.start
          ~config:{ Server.default_config with workers = 2; fsync = false }
          ~store_root:(Filename.concat root "steady") ()
      in
      let port = Server.port server in
      let jobs = 48 in
      let _, wall, _ =
        timed (fun () ->
            for i = 0 to jobs - 1 do
              let tenant = tenants.(i mod Array.length tenants) in
              match
                rpc port
                  (Proto.Submit
                     { tenant; job = Printf.sprintf "job%02d" i; runs = 10;
                       seed = 7 + i; deadline = 0.0; source })
              with
              | Proto.Accepted _ -> ()
              | _ -> failwith "serve bench: steady submit rejected"
            done;
            (* poll until the whole batch drained *)
            let rec wait_done tries =
              if tries = 0 then failwith "serve bench: steady jobs never drained";
              let text =
                match rpc port Proto.Metrics with
                | Proto.Metrics_text t -> t
                | _ -> failwith "serve bench: metrics rpc failed"
              in
              if int_of_float (metric text "s89_jobs_done") < jobs then (
                Thread.delay 0.01;
                wait_done (tries - 1))
            in
            wait_done 6_000)
      in
      let text = Server.metrics_text server in
      let p50 = metric text "s89_job_latency_seconds{quantile=\"0.5\"}" in
      let p99 = metric text "s89_job_latency_seconds{quantile=\"0.99\"}" in
      let rejected = int_of_float (metric text "s89_jobs_rejected") in
      Server.stop server;
      Fmt.pr "@.%-34s %10d jobs over %d tenants@." "steady-state batch" jobs
        (Array.length tenants);
      Fmt.pr "%-34s %10.1f jobs/s@." "throughput" (float_of_int jobs /. wall);
      Fmt.pr "%-34s %10.4f s (p50)   %.4f s (p99)@." "job latency" p50 p99;
      Fmt.pr "%-34s %10d@." "rejections" rejected;
      record ~backend:"compiled" "serve/steady"
        [ ("jobs", Int jobs); ("rejected", Int rejected);
          ("rejection_rate", Num (float_of_int rejected /. float_of_int jobs));
          ("p50_latency_s", Num p50); ("p99_latency_s", Num p99);
          ("throughput_jobs_s", Num (float_of_int jobs /. wall));
          ("saturated", Str "no") ]);
  (* -------- overload: 1 worker, queue of 1, burst must shed -------- *)
  with_tmp_root (fun root ->
      let server =
        Server.start
          ~config:
            { Server.default_config with workers = 1; queue_capacity = 1;
              fsync = false }
          ~store_root:(Filename.concat root "overload") ()
      in
      let port = Server.port server in
      (* a long job pins the single worker... *)
      (match
         rpc port
           (Proto.Submit
              { tenant = "busy"; job = "long"; runs = 2_000_000; seed = 1;
                deadline = 0.0; source })
       with
      | Proto.Accepted _ -> ()
      | _ -> failwith "serve bench: long job rejected");
      let rec wait_running tries =
        if tries = 0 then failwith "serve bench: long job never started";
        match rpc port (Proto.Status { tenant = "busy"; job = "long" }) with
        | Proto.Job_status { state = "running"; _ } -> ()
        | _ ->
            Thread.delay 0.005;
            wait_running (tries - 1)
      in
      wait_running 2_000;
      (* ...so a burst overfills the 1-slot queue and the rest shed *)
      let burst = 20 in
      let rejected = ref 0 in
      let _, wall, _ =
        timed (fun () ->
            for i = 0 to burst - 1 do
              match
                rpc port
                  (Proto.Submit
                     { tenant = "busy"; job = Printf.sprintf "burst%02d" i;
                       runs = 5; seed = 100 + i; deadline = 0.0; source })
              with
              | Proto.Accepted _ -> ()
              | Proto.Rejected { retry_after; _ } ->
                  assert (retry_after > 0.0);
                  incr rejected
              | _ -> failwith "serve bench: unexpected burst answer"
            done)
      in
      let text = Server.metrics_text server in
      let p50 = metric text "s89_job_latency_seconds{quantile=\"0.5\"}" in
      let p99 = metric text "s89_job_latency_seconds{quantile=\"0.99\"}" in
      Server.stop server;
      let submitted = burst + 1 in
      let rate = float_of_int !rejected /. float_of_int submitted in
      Fmt.pr "@.%-34s %10d submissions (1 worker, queue 1)@." "overload burst"
        submitted;
      Fmt.pr "%-34s %10d shed with NET001 (%.0f%%)@." "rejections" !rejected
        (100.0 *. rate);
      Fmt.pr "%-34s %10.0f submissions/s@." "admission decisions"
        (float_of_int burst /. wall);
      if !rejected = 0 then
        Fmt.pr "[WARN] overload run shed nothing — queue never saturated@.";
      record ~backend:"compiled" "serve/overload"
        [ ("jobs", Int submitted); ("rejected", Int !rejected);
          ("rejection_rate", Num rate); ("p50_latency_s", Num p50);
          ("p99_latency_s", Num p99);
          ("throughput_jobs_s", Num (float_of_int burst /. wall));
          ("saturated", Str "yes") ]);
  (* -------- exhaustion: flooding tenant vs. well-behaved SLO -------- *)
  (* PR-10 resource governance: a flooding tenant is held back by its
     token bucket + job quota while a well-behaved tenant's client-side
     p99 must stay within a small factor of its unloaded baseline, and
     the GC (retention 0, size-bounded) must pull the store back under
     [max_store_bytes] once the flood stops. *)
  with_tmp_root (fun root ->
      let max_store_bytes = 256 * 1024 in
      let server =
        Server.start
          ~config:
            { Server.default_config with
              workers = 2; fsync = false;
              quota =
                { S89_net.Quota.rate = 40.0; burst = 8; max_bytes = 0;
                  max_jobs = 16 };
              retain_done = 0.0; max_store_bytes; gc_interval = 0.1 }
          ~store_root:(Filename.concat root "exhaust") ()
      in
      let port = Server.port server in
      let wait_done tenant job =
        let rec go tries =
          if tries = 0 then failwith "serve bench: exhaust job never finished";
          match rpc port (Proto.Status { tenant; job }) with
          | Proto.Job_status { state = "done"; _ } -> ()
          | _ ->
              Thread.delay 0.002;
              go (tries - 1)
        in
        go 30_000
      in
      (* client-observed latency: submit (retrying its own rate limit)
         through done *)
      let timed_job tenant job =
        let t0 = Unix.gettimeofday () in
        let rec submit tries =
          if tries = 0 then failwith "serve bench: well-behaved submit starved";
          match
            rpc port
              (Proto.Submit
                 { tenant; job; runs = 10; seed = 11; deadline = 0.0; source })
          with
          | Proto.Accepted _ -> ()
          | Proto.Rejected { retry_after; _ } ->
              Thread.delay (Float.max 0.005 retry_after);
              submit (tries - 1)
          | _ -> failwith "serve bench: unexpected submit answer"
        in
        submit 1_000;
        wait_done tenant job;
        Unix.gettimeofday () -. t0
      in
      let p99 xs =
        let a = Array.of_list xs in
        Array.sort compare a;
        let n = Array.length a in
        a.(min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
      in
      let jobs = 12 in
      let baseline =
        List.init jobs (fun i -> timed_job "good" (Printf.sprintf "base%02d" i))
      in
      let p99_unloaded = p99 baseline in
      (* the flood: one tenant hammering admission from its own thread *)
      let stop_flood = Atomic.make false in
      let flood_sent = ref 0 in
      let flood_rejected = ref 0 in
      let flooder =
        Thread.create
          (fun () ->
            while not (Atomic.get stop_flood) do
              incr flood_sent;
              match
                rpc port
                  (Proto.Submit
                     { tenant = "flood"; job = Printf.sprintf "f%06d" !flood_sent;
                       runs = 10; seed = !flood_sent; deadline = 0.0; source })
              with
              | Proto.Rejected _ -> incr flood_rejected
              | _ -> ()
            done)
          ()
      in
      let loaded =
        List.init jobs (fun i -> timed_job "good" (Printf.sprintf "load%02d" i))
      in
      Atomic.set stop_flood true;
      Thread.join flooder;
      let p99_loaded = p99 loaded in
      (* let the GC reap the flood's finished jobs, then read the gauge *)
      let rec wait_gc tries =
        let bytes =
          int_of_float (metric (Server.metrics_text server) "s89_store_bytes")
        in
        if bytes > max_store_bytes && tries > 0 then begin
          Thread.delay 0.1;
          wait_gc (tries - 1)
        end
        else bytes
      in
      let store_bytes_after = wait_gc 100 in
      let gc_collected =
        int_of_float (metric (Server.metrics_text server) "s89_gc_collected")
      in
      Server.stop server;
      let ratio = p99_loaded /. Float.max 1e-9 p99_unloaded in
      let flood_rate =
        float_of_int !flood_rejected /. float_of_int (Stdlib.max 1 !flood_sent)
      in
      Fmt.pr "@.%-34s %10.4f s (unloaded)   %.4f s (under flood)@."
        "well-behaved tenant p99" p99_unloaded p99_loaded;
      Fmt.pr "%-34s %10.2fx@." "flood p99 ratio" ratio;
      Fmt.pr "%-34s %10d sent, %d shed (%.0f%%)@." "flood" !flood_sent
        !flood_rejected (100.0 *. flood_rate);
      Fmt.pr "%-34s %10d collected, %d bytes left (bound %d)@." "gc"
        gc_collected store_bytes_after max_store_bytes;
      record ~backend:"compiled" "serve/exhaust"
        [ ("jobs", Int (2 * jobs)); ("rejected", Int !flood_rejected);
          ("rejection_rate", Num flood_rate);
          ("p99_unloaded_s", Num p99_unloaded);
          ("p99_well_behaved_s", Num p99_loaded);
          ("flood_p99_ratio", Num ratio);
          ("p99_latency_s", Num p99_loaded);
          ("gc_collected", Int gc_collected);
          ("store_bytes_after_gc", Int store_bytes_after);
          ("max_store_bytes", Int max_store_bytes);
          ("saturated", Str "yes") ])

(* ------------------------------------------------------------------ *)
(* P8: incremental memoized analysis + strong control dependence      *)
(* ------------------------------------------------------------------ *)

module Memo = S89_core.Memo
module Static_freq = S89_core.Static_freq
module Gen = S89_testgen.Gen_prog
module Ecfg = S89_cfg.Ecfg
module Control_dep = S89_cdg.Control_dep
module Postdom = S89_graph.Postdom
module Digraph = S89_graph.Digraph

(* the pre-PR8 control-dependence construction, kept as the reference
   side of the comparison: a strict-postdominance filter per edge (each
   query an ancestor walk) and a hashtable probe per emitted (x, y, l)
   triple *)
let old_cdg_walk ecfg =
  let graph = S89_cfg.Cfg.graph (Ecfg.cfg ecfg) in
  let pdom = Postdom.compute graph ~exit_:(Ecfg.stop ecfg) in
  let cdg = Digraph.create () in
  ignore (Digraph.add_nodes cdg (Digraph.num_nodes graph));
  let seen = Hashtbl.create 64 in
  Digraph.iter_edges
    (fun (e : S89_cfg.Label.t Digraph.edge) ->
      let x = e.src and s = e.dst in
      if not (Postdom.strictly_postdominates pdom s x) then begin
        let limit = Postdom.ipostdom pdom x in
        let rec walk t =
          if Some t <> limit then begin
            if not (Hashtbl.mem seen (x, t, e.label)) then begin
              Hashtbl.replace seen (x, t, e.label) ();
              ignore (Digraph.add_edge cdg ~src:x ~dst:t ~label:e.label)
            end;
            match Postdom.ipostdom pdom t with Some t' -> walk t' | None -> ()
          end
        in
        walk s
      end)
    graph;
  cdg

let incremental () =
  section
    "P8. Incremental memoized analysis (edit-stream replay) + CDG construction";
  (* ---- edit-stream replay: cold vs. warm re-analysis.  Parsing is
     outside the timed region on both sides — the paper's machinery
     (and the memo) starts at analysis, so "cold" is a full per-edit
     re-analysis and "warm" the memoized dirty-cone one. *)
  let streams =
    [ ("simple-sized", 48, 8, 12, 10); (* ~2k lines of SIMPLE-ish bodies *)
      ("testgen", 96, 4, 24, 12) (* wider call DAG of gen_ast-style bodies *) ]
  in
  Fmt.pr "@.%-14s %10s %10s %9s %9s %11s@." "edit stream" "cold ms" "warm ms"
    "speedup" "hit rate" "dirty cone";
  List.iter
    (fun (label, procs, size, fan, edits) ->
      let consts = Array.make procs 1 in
      let parse () =
        Program.of_source (Gen.gen_incremental_source ~size ~fan ~consts 77)
      in
      let analyze ?memo prog =
        let t = Pipeline.create ?memo prog in
        Pipeline.estimate_totals ?memo t
          ~totals:(Pipeline.static_totals ?memo t)
      in
      let rng = S89_util.Prng.create ~seed:0xed17 in
      let stream = Array.init edits (fun _ -> S89_util.Prng.int rng procs) in
      let replay phase_analyze =
        Array.fill consts 0 procs 1;
        let total = ref 0.0 in
        Array.iter
          (fun j ->
            consts.(j) <- consts.(j) + 1;
            let prog = parse () in
            let _, w, _ = timed (fun () -> ignore (phase_analyze prog)) in
            total := !total +. w)
          stream;
        !total
      in
      (* cold: from-scratch analysis + estimation after every edit *)
      let cold_s = replay (fun prog -> analyze prog) in
      (* warm: one persistent memo, primed on the base program *)
      Array.fill consts 0 procs 1;
      let memo = Memo.create () in
      ignore (analyze ~memo (parse ()));
      Memo.reset_stats memo;
      let warm_s = replay (fun prog -> analyze ~memo prog) in
      let st = Memo.stats memo in
      let hit_rate =
        float_of_int st.Memo.hits /. float_of_int (st.Memo.hits + st.Memo.misses)
      in
      let dirty_cone = float_of_int st.Memo.misses /. float_of_int edits in
      (* the memoized result must be byte-identical to a fresh one on
         the stream's final program *)
      Array.fill consts 0 procs 1;
      Array.iter (fun j -> consts.(j) <- consts.(j) + 1) stream;
      let final = parse () in
      let identical =
        Fmt.str "%a" Report.pp (analyze ~memo final)
        = Fmt.str "%a" Report.pp (analyze final)
      in
      let cold_ms = 1e3 *. cold_s /. float_of_int edits
      and warm_ms = 1e3 *. warm_s /. float_of_int edits in
      Fmt.pr "%-14s %10.2f %10.2f %8.1fx %8.0f%% %11.1f%s@." label cold_ms
        warm_ms (cold_s /. warm_s) (100.0 *. hit_rate) dirty_cone
        (if identical then "" else "  [MISMATCH]");
      record ~backend:"none" ("incremental/" ^ label)
        [ ("procs", Int procs); ("edits", Int edits); ("cold_ms", Num cold_ms);
          ("warm_ms", Num warm_ms); ("warm_speedup", Num (cold_s /. warm_s));
          ("hit_rate", Num hit_rate); ("dirty_cone", Num dirty_cone);
          ("byte_identical", Str (if identical then "yes" else "no")) ])
    streams;
  (* ---- the strong-control-dependence swap, on a ~1e5-node CFG ---- *)
  let src = Gen.gen_wide_cfg_source ~nodes:100_000 () in
  let prog = Program.of_source src in
  let p = Program.main_proc prog in
  let ecfg =
    Ecfg.extend
      ~empty:{ S89_frontend.Ir.ir = S89_frontend.Ir.Nop "SYNTH"; src_label = None }
      p.Program.cfg
  in
  let n = Digraph.num_nodes (S89_cfg.Cfg.graph (Ecfg.cfg ecfg)) in
  let cdg_new, w_new, a_new =
    timed_best ~reps:3 (fun () -> Control_dep.compute ecfg)
  in
  let cdg_old, w_old, a_old = timed_best ~reps:3 (fun () -> old_cdg_walk ecfg) in
  let edges g = Digraph.num_edges g in
  let same = edges (Control_dep.graph cdg_new) = edges cdg_old in
  Fmt.pr "@.%-34s %10d nodes@." "generated ECFG" n;
  Fmt.pr "%-34s %10.1f ms  (%d edges)@." "CDG, ancestor-walk reference"
    (1e3 *. w_old) (edges cdg_old);
  Fmt.pr "%-34s %10.1f ms  (%d edges)%s@." "CDG, interval-numbered (PR8)"
    (1e3 *. w_new)
    (edges (Control_dep.graph cdg_new))
    (if same then "" else "  [EDGE-COUNT MISMATCH]");
  Fmt.pr "%-34s %10.2fx@." "construction speedup" (w_old /. w_new);
  record ~backend:"none" ~alloc:a_new "incremental/cdg_new"
    [ ("nodes", Int n); ("edges", Int (edges (Control_dep.graph cdg_new)));
      ("wall_ms", Num (1e3 *. w_new)) ];
  record ~backend:"none" ~alloc:a_old "incremental/cdg_old"
    [ ("nodes", Int n); ("edges", Int (edges cdg_old));
      ("wall_ms", Num (1e3 *. w_old));
      ("speedup_new_over_old", Num (w_old /. w_new));
      ("edge_sets_agree", Str (if same then "yes" else "no")) ]

(* Placement.plan alone on generated wide CFGs (the perfbench wide-cfg
   shape) of growing size: analysis is built outside the timed region.
   Linear growth keeps wall(8k)/wall(2k) near 4; the regression script
   gates it at 6, so those two sizes are timed as one interleaved pair. *)
let placement_scaling () =
  section "Smart counter placement: Placement.plan on 1k-8k-node wide CFGs";
  let host = Domain.recommended_domain_count () in
  let analyses_of nodes =
    Analysis.of_program (Program.of_source (Gen.gen_wide_cfg_source ~nodes ()))
  in
  let plan_of a () = Placement.plan a in
  let sizes = [ 1000; 2000; 4000; 8000 ] in
  let analyses = List.map (fun n -> (n, analyses_of n)) sizes in
  let a2k = List.assoc 2000 analyses and a8k = List.assoc 8000 analyses in
  let m2k, m8k = timed_pair ~reps:5 (plan_of a2k) (plan_of a8k) in
  let measure nodes =
    match nodes with
    | 2000 -> m2k
    | 8000 -> m8k
    | _ -> timed_best ~reps:5 (plan_of (List.assoc nodes analyses))
  in
  Fmt.pr "@.%-8s %10s %10s %9s %9s %11s %12s  %s@." "nodes" "ecfg" "conds"
    "counters" "derived" "wall ms" "alloc words" "plan digest";
  List.iter
    (fun (nodes, analyses) ->
      let plan, wall, alloc = measure nodes in
      let digest = Digest.to_hex (Digest.string (Fmt.str "%a" Placement.pp plan)) in
      let sum f = Hashtbl.fold (fun _ a acc -> acc + f a) analyses 0 in
      let ecfg_nodes =
        sum (fun a -> S89_cfg.Cfg.num_nodes (Ecfg.cfg a.Analysis.ecfg))
      and conds = sum (fun a -> List.length a.Analysis.conditions)
      and derived =
        List.fold_left
          (fun acc name ->
            acc + List.length (Placement.proc_plan plan name).Placement.derived)
          0 (Placement.proc_names plan)
      in
      let alloc_words = int_of_float (alloc /. float_of_int (Sys.word_size / 8)) in
      Fmt.pr "%-8d %10d %10d %9d %9d %11.2f %12d  %s@." nodes ecfg_nodes conds
        (Placement.n_counters plan) derived (1e3 *. wall) alloc_words digest;
      record ~backend:"none"
        (Printf.sprintf "placement/wide%d" nodes)
        [ ("nodes", Int nodes); ("ecfg_nodes", Int ecfg_nodes);
          ("conditions", Int conds); ("counters", Int (Placement.n_counters plan));
          ("derived", Int derived); ("wall_s", Num wall);
          ("alloc_words", Int alloc_words); ("host_cores", Int host);
          ("plan_digest", Str digest) ])
    analyses

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock suite                                          *)
(* ------------------------------------------------------------------ *)

let wall () =
  section "Bechamel wall-clock micro-suite (one Test per table/figure)";
  let open Bechamel in
  let loops_prog = Program.of_source S89_workloads.Livermore.source in
  let simple_small =
    Program.of_source (S89_workloads.Simple_code.source ~n:20 ~cycles:1 ())
  in
  let fig1_prog = Program.of_source (W.fig1 ()) in
  let pipeline_loops = Pipeline.create loops_prog in
  let vm_loops = Pipeline.run_once pipeline_loops in
  let tests =
    Test.make_grouped ~name:"s89"
      [
        Test.make ~name:"table1.vm-run-SIMPLE-20x1"
          (Staged.stage (fun () -> ignore (run_vm ~cm:CM.optimized simple_small)));
        Test.make ~name:"figures.analysis-pipeline-FIG1"
          (Staged.stage (fun () -> ignore (Analysis.of_program fig1_prog)));
        Test.make ~name:"counters.smart-plan-LOOPS"
          (Staged.stage (fun () ->
               ignore (Placement.plan (Analysis.of_program loops_prog))));
        Test.make ~name:"accuracy.estimate-LOOPS"
          (Staged.stage (fun () ->
               ignore (Pipeline.estimate_oracle pipeline_loops vm_loops)));
        Test.make ~name:"chunks.parsim-10k"
          (Staged.stage (fun () ->
               ignore
                 (S89_sched.Parsim.run ~n:10_000 ~p:16 ~h:50.0
                    ~dist:(S89_sched.Dist.Exponential { mean = 100.0 })
                    S89_sched.Chunk.Self_sched)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Fmt.pr "%-45s %14.1f ns/run@." name est
      | _ -> Fmt.pr "%-45s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let all_targets =
  [ ("table1", table1); ("t1", table1); ("figure1", figure1); ("f1", figure1);
    ("figure2", figure2); ("f2", figure2); ("figure3", figure3); ("f3", figure3);
    ("counters", counters); ("x1", counters); ("sampling", sampling);
    ("x2", sampling); ("accuracy", accuracy); ("x3", accuracy); ("chunks", chunks);
    ("x4", chunks); ("static", static_analysis); ("x5", static_analysis);
    ("scaling", scaling); ("p3", scaling); ("guards", guards); ("p4", guards);
    ("wal", wal_bench); ("p5", wal_bench); ("incremental", incremental);
    ("p8", incremental); ("serve", serve_bench); ("p9", serve_bench);
    ("placement", placement_scaling); ("wall", wall) ]

let default_order =
  [ figure1; figure2; figure3; table1; counters; sampling; accuracy; chunks;
    static_analysis ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* peel off `--json FILE` anywhere in the argument list *)
  let rec split_json acc = function
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | "--json" :: [] ->
        Fmt.epr "--json requires a file argument@.";
        exit 1
    | a :: rest -> split_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_file, args = split_json [] args in
  (* peel off `--domains N` anywhere in the argument list; reject <= 0 *)
  let rec split_domains = function
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            let d', rest' = split_domains rest in
            ((match d' with None -> Some d | some -> some (* last wins *)), rest')
        | Some d ->
            Fmt.epr "--domains: must be >= 1 (got %d)@." d;
            exit 1
        | None ->
            Fmt.epr "--domains: expected a positive integer (got %s)@." v;
            exit 1)
    | "--domains" :: [] ->
        Fmt.epr "--domains requires a value@.";
        exit 1
    | a :: rest ->
        let d, rest' = split_domains rest in
        (d, a :: rest')
    | [] -> (None, [])
  in
  let domains_opt, args = split_domains args in
  let domains = Option.value domains_opt ~default:1 in
  bench_pool := Pool.create ~force_parallel:(domains > 1) ~domains ();
  if domains > 1 then
    Fmt.pr "using a %d-domain work pool for independent reps@."
      (Pool.domains !bench_pool);
  (* fail on an unwritable path now, not after minutes of benchmarking *)
  (match json_file with
  | Some file -> (
      match open_out file with
      | oc -> close_out oc
      | exception Sys_error msg ->
          Fmt.epr "--json: cannot write %s (%s)@." file msg;
          exit 1)
  | None -> ());
  (match args with
  | [] -> List.iter (fun f -> f ()) default_order
  | _ ->
      List.iter
        (fun a ->
          match List.assoc_opt (String.lowercase_ascii a) all_targets with
          | Some f -> f ()
          | None ->
              Fmt.epr "unknown bench target %s; known: %a@." a
                Fmt.(list ~sep:sp string)
                (List.map fst all_targets);
              exit 1)
        args);
  match json_file with None -> () | Some file -> write_json file
