package rmabench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.{Row, SparkSession}

/** The RMA query benchmark.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * Main --self-test --workload <name> --seed <n> --out <dir>
  * }}}
  *
  * A run sets up its workload's inputs [[SetupRounds]] times, warms up for
  * [[WarmupSeconds]], then sends one query at a time (a closed loop with one
  * client) for `--seconds` and checks every answer. With `--trace 0` it times the query through
  * `RmaSql.sql` and prints the end-to-end metrics; with `--trace 1` it
  * alternates that query with the same query composed from the layers'
  * public calls under a [[Tracer]], and prints the per-layer metrics. The
  * last line of standard output is the result as one JSON object.
  *
  * `--self-test` checks that the workload's check accepts the real answer and
  * rejects a corrupted one.
  */
object Main {

  /** Set-up is repeated and its median reported, so one slow round (the
    * first, on a cold JVM) does not decide the figure.
    */
  val SetupRounds = 3

  /** After set-up the JIT is still compiling for several queries; this
    * untimed warm-up lets the measured queries start from a steadier JVM. It
    * takes a fixed time, so it is not part of `setup_s`.
    */
  val WarmupSeconds = 4.0

  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                           selfTest: Boolean, out: File)

  private val Usage =
    "usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>\n" +
      "       Main --self-test --workload <name> --seed <n> --out <dir>"

  def parse(argv: Array[String]): Options = {
    def fail(msg: String): Nothing = {
      System.err.println(s"$msg\n$Usage"); sys.exit(2)
    }
    val selfTest = argv.contains("--self-test")
    val kv = argv.filterNot(_ == "--self-test").grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => fail(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String, default: Option[String] = None): String =
      kv.get(k).orElse(default).getOrElse(fail(s"missing --$k"))
    val known = Set("workload", "seed", "seconds", "trace", "out")
    kv.keys.filterNot(known).foreach(k => fail(s"unknown option --$k"))
    val workload = get("workload")
    if (!Workload.names.contains(workload))
      fail(s"unknown workload '$workload'; one of ${Workload.names.mkString(", ")}")
    val trace = get("trace", Some("0"))
    if (trace != "0" && trace != "1") fail("--trace takes 0 or 1")
    val seconds = get("seconds", Some("10")).toIntOption.filter(_ > 0).getOrElse(fail("bad --seconds"))
    val seed = get("seed").toLongOption.getOrElse(fail("bad --seed"))
    Options(workload, seed, seconds, trace == "1", selfTest, new File(get("out")))
  }

  def session(out: File): SparkSession = {
    val nproc = Runtime.getRuntime.availableProcessors
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("rmabench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * nproc).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val opts = parse(argv)
    // F2J LAPACK computes its machine constants on first use, without
    // synchronisation. When TSQR's threads make that first use together, the
    // constants can come out wrong for the rest of the JVM, and dlarfg can
    // loop forever (ROADMAP item 1). One call here, on this thread, fixes
    // them before any query runs; [[LapackRace]] probes the race in a JVM of
    // its own.
    dev.ludovic.netlib.lapack.LAPACK.getInstance().dlamch("e")
    opts.out.mkdirs()
    val spark = session(opts.out)
    val code =
      try if (opts.selfTest) selfTest(spark, opts) else { run(spark, opts); 0 }
      finally spark.stop()
    sys.exit(code)
  }

  // ---------------------------------------------------------------------

  final case class Sample(seconds: Double, ok: Boolean)

  /** Counts every checked query, warm-ups and traced ones included. */
  private var attempted = 0
  private var failed = 0

  private def attempt(w: Workload)(answer: => Array[Row]): Sample = {
    val t0 = System.nanoTime()
    val ok =
      try w.check(answer) match {
        case None => true
        case Some(why) => System.err.println(s"${w.name}: wrong answer: $why"); false
      } catch {
        case NonFatal(e) => System.err.println(s"${w.name}: query failed: $e"); false
      }
    attempted += 1
    if (!ok) failed += 1
    Sample((System.nanoTime() - t0) / 1e9, ok)
  }

  private def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  private def seconds[A](f: => A): Double = {
    val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9
  }

  def run(spark: SparkSession, opts: Options): Unit = {
    val w = Workload(opts.workload)
    val tracer = new Tracer(spark.sparkContext)
    var queryId = 0
    /** One traced query; its root span, if its answer was right. */
    def traced(): Option[Span] = {
      queryId += 1
      var root: Option[Span] = None
      val s = attempt(w) {
        val (rows, r) = tracer.query(queryId)(w.traced(spark, tracer))
        root = Some(r)
        rows
      }
      root.filter(_ => s.ok)
    }

    val setup = (1 to SetupRounds).map { _ =>
      seconds {
        w.teardown()
        w.setup(spark, opts.seed)
        attempt(w)(w.run(spark))
      }
    }

    val untraced = ArrayBuffer[Sample]()
    val tracedRoots = ArrayBuffer[Span]()
    /** Alternate untraced and (with --trace 1) traced queries for `secs`,
      * and at least once each; keep the samples if `keep`.
      */
    def loop(secs: Double, keep: Boolean): Double = {
      val start = System.nanoTime()
      val deadline = start + (secs * 1e9).toLong
      val atLeast = if (opts.trace) 2 else 1
      var i = 0
      while (System.nanoTime() < deadline || i < atLeast) {
        if (opts.trace && i % 2 == 1) { val r = traced(); if (keep) tracedRoots ++= r }
        else { val s = attempt(w)(w.run(spark)); if (keep) untraced += s }
        i += 1
      }
      (System.nanoTime() - start) / 1e9
    }
    loop(WarmupSeconds, keep = false)
    val firstMeasured = queryId + 1
    val loopSeconds = loop(opts.seconds, keep = true)
    val latency = median(untraced.map(_.seconds).toSeq)

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) Seq(
        ("latency_p50_s", latency, "s"),
        ("cells_per_s", w.cells * untraced.count(_.ok) / loopSeconds, "cells/s"),
        ("setup_s", median(setup), "s"))
      else layerMetrics(tracer, tracedRoots.toSeq, latency)

    val record = runRecord(spark)
    if (opts.trace) {
      val dir = new File(opts.out, "traces")
      dir.mkdirs()
      val file = new File(dir, s"${w.name}-seed${opts.seed}.json")
      val spans = tracer.spans.filter(_.query >= firstMeasured).map(s => Json.Raw(s.toJson))
      Files.write(file.toPath, Json.obj("workload" -> w.name, "seed" -> opts.seed,
        "run_record" -> Json.Raw(record), "spans" -> spans).getBytes(StandardCharsets.UTF_8))
      println(s"# spans written to ${file.getPath}")
    }
    println(s"# ${w.name} seed=${opts.seed} latency_p50_s=$latency samples=${untraced.length} " +
      s"traced=${tracedRoots.length} setup_rounds_s=${setup.map(x => f"$x%.3f").mkString(",")} " +
      s"latencies_s=${untraced.map(x => f"${x.seconds}%.3f").mkString(",")}")
    println(s"# run_record $record")
    println(Json.obj(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.Raw(Json.obj(metrics.map { case (n, v, u) =>
        n -> Json.Raw(Json.obj("value" -> v, "unit" -> u))
      }: _*))))
  }

  /** Per-layer figures: medians over the traced queries of each query's
    * total in a span kind, except GC (mean per query, since collections are
    * rare and lumpy) and heap (the highest peak).
    */
  def layerMetrics(tracer: Tracer, roots: Seq[Span], untracedP50: Double): Seq[(String, Double, String)] = {
    val byQuery = tracer.spans.groupBy(_.query)
    def perQuery(f: (Span, Seq[Span]) => Double): Seq[Double] = roots.map { root =>
      val all = byQuery(root.query).toSeq
      f(root, all.filter(_.parent == root.id))
    }
    def top(name: String)(g: Span => Double): Double = median(perQuery((_, kids) =>
      kids.filter(_.name == name).map(g).sum))
    def all(g: Span => Double): Double = median(roots.map(r => byQuery(r.query).map(g).sum))
    val n = math.max(1, roots.length)
    def mean(name: String)(g: Span => Double): Double =
      roots.map(r => byQuery(r.query).filter(_.name == name).map(g).sum).sum / n
    val secs = (s: Span) => s.seconds
    val splitS = top("split")(secs)
    val kernelS = top("kernel")(secs)
    val splitCells = top("split")(_.cells.toDouble)
    val flops = top("kernel")(_.flops)
    val mb = 1024.0 * 1024.0
    Seq(
      ("constructors.split_s", splitS, "s"),
      ("constructors.split_mcells_per_s", if (splitS > 0) splitCells / splitS / 1e6 else 0.0, "Mcells/s"),
      ("constructors.build_s", top("build")(secs), "s"),
      ("matrix.kernel_s", kernelS, "s"),
      ("matrix.kernel_gflops", if (kernelS > 0) flops / kernelS / 1e9 else 0.0, "GFLOP/s"),
      ("rma.op_s", top("op")(secs), "s"),
      ("spark.consume_s", top("consume")(secs), "s"),
      ("spark.jobs", all(_.jobs.toDouble), "count"),
      ("spark.jobs.split", top("split")(_.jobs.toDouble), "count"),
      ("spark.jobs.op", top("op")(_.jobs.toDouble), "count"),
      ("spark.jobs.consume", top("consume")(_.jobs.toDouble), "count"),
      ("spark.tasks", all(_.tasks.toDouble), "count"),
      ("spark.shuffle_write_mb", all(_.shuffleWriteBytes / mb), "MB"),
      ("spark.result_mb", all(_.resultBytes / mb), "MB"),
      ("jvm.gc_s", mean("query")(_.gcMs / 1e3), "s"),
      ("jvm.gc_count", mean("query")(_.gcCount.toDouble), "count"),
      ("jvm.gc_s.build", mean("build")(_.gcMs / 1e3), "s"),
      ("jvm.gc_s.consume", mean("consume")(_.gcMs / 1e3), "s"),
      ("jvm.heap_peak_mb", if (roots.isEmpty) 0.0 else roots.map(_.heapPeakBytes).max / mb, "MB"),
      ("trace.unattributed_s", median(perQuery((root, kids) => root.seconds - kids.map(_.seconds).sum)), "s"),
      ("trace.overhead_s", median(roots.map(_.seconds)) - untracedP50, "s"),
      ("trace.samples", roots.length.toDouble, "count"))
  }

  /** Host, JVM, Spark and netlib facts, taken at the end of the run. The
    * LAPACK machine epsilon is read again now, so anything that changed it
    * during the run shows here.
    */
  def runRecord(spark: SparkSession): String = {
    val os = ManagementFactory.getOperatingSystemMXBean match {
      case b: com.sun.management.OperatingSystemMXBean => b.getTotalMemorySize / (1024 * 1024)
      case _ => -1L
    }
    val lapack = dev.ludovic.netlib.lapack.LAPACK.getInstance()
    val eps = lapack.dlamch("e")
    Json.obj(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "memory_mb" -> os,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "spark_version" -> spark.version,
      "spark_master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "blas" -> dev.ludovic.netlib.blas.BLAS.getInstance().getClass.getName,
      "lapack" -> lapack.getClass.getName,
      "dlamch_eps" -> eps,
      "dlamch_eps_is_half_ulp" -> (eps == Math.ulp(1.0) / 2))
  }

  // ---------------------------------------------------------------------

  /** The workload's check must accept the real answer and reject the
    * corrupted one. Like a measured run, it runs one workload per JVM.
    */
  def selfTest(spark: SparkSession, opts: Options): Int = {
    val w = Workload(opts.workload)
    def problem(answer: => Array[Row]): Option[String] =
      try w.check(answer) catch { case NonFatal(e) => Some(s"query failed: $e") }
    w.setup(spark, opts.seed)
    val accepts = problem(w.run(spark))
    val rejects = problem(w.corrupted(spark))
    val ok = accepts.isEmpty && rejects.nonEmpty
    println(Json.obj("workload" -> w.name, "seed" -> opts.seed,
      "accepts_real_answer" -> accepts.isEmpty, "real_answer_problem" -> accepts.orNull,
      "rejects_corrupted" -> rejects.nonEmpty, "corrupted_answer_problem" -> rejects.orNull,
      "ok" -> ok))
    if (ok) 0 else 1
  }
}
