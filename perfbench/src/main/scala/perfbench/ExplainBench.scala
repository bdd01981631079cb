package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import org.apache.spark.perfbench.ListenerDrain
import org.apache.spark.sql.SparkSession
import repro.core.{Cajade, Metrics, Mine, Query}
import repro.core.Schema.Database

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Closed-loop benchmark of `Cajade.explain` with one client.
  *
  * Usage: ExplainBench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
  *
  * A run sets the database up [[SetupRepeats]] times (Spark session, data
  * generation, cache and count of every table) and keeps the last one. It
  * then answers the workload's question once cold, `warmupCalls` more times
  * unmeasured, and then in measured warm calls, at least the workload's
  * `measuredCalls` and more until `--seconds` have passed, checking every
  * result with the [[Gate]]. The number of calls is fixed rather than timed
  * because the JIT keeps speeding calls up for many calls: a timed window
  * would let machine speed decide which calls the median is taken from.
  * With `--trace 0` it reports the end-to-end metrics. With `--trace 1`
  * warm calls alternate between traced calls, which carry a [[JobTrace]]
  * listener and a step timer, and untraced ones, so the per-layer metrics
  * come with the tracing overhead. The last line of standard output is the
  * JSON result.
  */
object ExplainBench {

  val SetupRepeats = 3
  val TopK = 3

  /** Spark settings of the benchmark: four local cores and the test suite's
    * shuffle and join settings.
    */
  val sparkConf: Seq[(String, String)] = Seq(
    "spark.master" -> "local[4]",
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
  )

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean, spans: Option[String])

  def parseArgs(args: Array[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): Either[String, String] = kv.get(k).toRight(s"missing --$k")
    for {
      _ <- if (args.length % 2 == 0 && kv.size * 2 == args.length) Right(()) else Left("arguments must be --key value pairs")
      name <- need("workload")
      w <- Workloads.byName(name).toRight(s"unknown workload '$name'; known: ${Workloads.all.map(_.name).mkString(", ")}")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- need("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"bad --trace $t")
      }
    } yield Args(w, seed, secs, trace, kv.get("spans"))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def now(): Long = System.nanoTime()
  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1000.0

  private def session(localDir: String): SparkSession = {
    val b = SparkSession.builder.appName("cajade-perfbench").config("spark.local.dir", localDir)
    val s = sparkConf.foldLeft(b) { case (acc, (k, v)) => acc.config(k, v) }.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Sets the workload's database up once; returns seconds, session, database. */
  private def setup(w: Workload, seed: Long, localDir: String): (Double, SparkSession, Database) = {
    val t0 = now()
    val spark = session(localDir)
    val db = w.generate(spark, seed)
    db.tables.values.foreach(df => df.cache().count())
    (secondsSince(t0), spark, db)
  }

  /** One explain call's outcome. */
  final case class Call(wall: Double, result: Option[Cajade.Result], problems: Seq[String])

  private def explain(w: Workload, db: Database, gate: Gate, timer: Mine.StepTimer): Call = {
    val t0 = now()
    try {
      val res = Cajade.explain(db, w.query, w.question, w.params, timer)
      val wall = secondsSince(t0)
      Call(wall, Some(res), gate.check(res))
    } catch {
      case NonFatal(e) => Call(secondsSince(t0), None, Seq(s"explain threw $e"))
    }
  }

  /** Per-layer values of one traced call. */
  def layerValues(wall: Double, timer: Mine.StepTimer, res: Cajade.Result, jobs: Seq[JobTrace.Job],
                  ptRows: Long, gcS: Double, heapMb: Double): Map[String, Double] = {
    def step(s: String) = timer.seconds(s)
    def ofLayer(l: String) = jobs.filter(_.layer.contains(l))
    def busy(js: Seq[JobTrace.Job]) = JobTrace.busySeconds(js.map(j => (j.start, j.end)))
    def perJob(js: Seq[JobTrace.Job]) = if (js.isEmpty) 0.0 else busy(js) / js.size
    val coverage = ofLayer("coverage")
    val sparkBusy = busy(jobs)
    Map(
      "fscore.s" -> step("F-score Calc."),
      "coverage.jobs" -> coverage.size.toDouble,
      "coverage.busy_s" -> busy(coverage),
      "coverage.s_per_job" -> perJob(coverage),
      "provsizes.jobs" -> ofLayer("provsizes").size.toDouble,
      "apt.s" -> step("Materialize APTs"),
      "apt.rows" -> res.perGraph.map(_._2.aptStats.rows).sum.toDouble,
      "apt.empty_graphs" -> res.perGraph.count(_._2.aptStats.rows == 0).toDouble,
      "mine.jobs" -> ofLayer("mine").size.toDouble,
      "f1_sampling.s" -> step("Sampling for F1"),
      "refine.s" -> step("Refine Patterns"),
      "fragments.jobs" -> ofLayer("fragments").size.toDouble,
      "mine.residual_s" -> (wall - timer.totals.values.sum),
      "feature_selection.s" -> step("Feature Selection"),
      "sample.jobs" -> ofLayer("sample").size.toDouble,
      "candidates.s" -> step("Gen. Pat. Cand."),
      "enumerate.s" -> step("JG Enum."),
      "enumerate.jobs" -> ofLayer("enumerate").size.toDouble,
      "enumerate.graphs" -> res.joinGraphCount.toDouble,
      "query.jobs" -> ofLayer("query").size.toDouble,
      "query.busy_s" -> busy(ofLayer("query")),
      "query.pt_rows" -> ptRows.toDouble,
      "spark.jobs" -> jobs.size.toDouble,
      "spark.stages" -> jobs.map(_.stages).sum.toDouble,
      "spark.tasks" -> jobs.map(_.tasks).sum.toDouble,
      "spark.busy_s" -> sparkBusy,
      "spark.s_per_job" -> perJob(jobs),
      "driver.s" -> (wall - sparkBusy),
      "jvm.gc_s" -> gcS,
      "jvm.heap_used_mb" -> heapMb,
      "unattributed.jobs" -> jobs.count(_.layer.isEmpty).toDouble,
      "trace.explain_s" -> wall,
    )
  }

  /** Span lines of one traced call: the call itself, then one per job. */
  def spans(call: String, startMs: Long, wall: Double, timer: Mine.StepTimer, jobs: Seq[JobTrace.Job]): Seq[String] = {
    import Report.quote
    val steps = timer.totals.map { case (k, v) => s"${quote(k)}: $v" }.mkString(", ")
    s"""{"span": "Cajade.explain", "id": ${quote(call)}, "start_ms": $startMs, "end_ms": ${startMs + (wall * 1000).round}, "steps": {$steps}}""" +:
      jobs.map { j =>
        s"""{"span": ${quote(s"job ${j.id}")}, "parent": ${quote(call)}, "function": ${quote(j.function.getOrElse(""))}, """ +
          s""""layer": ${quote(j.layer.getOrElse("unattributed"))}, "start_ms": ${j.start}, "end_ms": ${j.end}, """ +
          s""""stages": ${j.stages}, "tasks": ${j.tasks}}"""
      }
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv) match {
      case Right(a) => a
      case Left(err) =>
        System.err.println(s"ExplainBench: $err")
        sys.exit(2)
    }
    val w = args.workload
    val localDir = new File(sys.props.getOrElse("java.io.tmpdir", ".")).getAbsolutePath

    // Set-up, repeated; the last session and database are kept.
    var spark: SparkSession = null
    var db: Database = null
    val setupTimes = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      val (t, s, d) = setup(w, args.seed, localDir)
      spark = s; db = d
      t
    }
    val sc = spark.sparkContext

    val (n1, n2) = Metrics.provSizes(Query.questionProvenance(db, w.query, w.question))
    if (n1 == 0 || n2 == 0) {
      System.err.println(s"ExplainBench: seed ${args.seed} leaves a question group of ${w.describeQuestion} " +
        s"empty (t1=$n1, t2=$n2 provenance rows)")
      spark.stop()
      sys.exit(3)
    }
    val ptRows = n1 + n2

    println(s"workload ${w.name} seed ${args.seed} ${w.dataset} sf=${w.scale} ${w.describeQuestion} " +
      s"(|PT|=$ptRows: t1=$n1 t2=$n2) params=${w.params}")
    println(s"spark ${spark.version} ${sparkConf.map { case (k, v) => s"$k=$v" }.mkString(" ")} " +
      s"cores=${Runtime.getRuntime.availableProcessors} heap_max_mb=${Runtime.getRuntime.maxMemory >> 20}")

    val gate = new Gate(db, w.query, w.question, TopK)
    val tracer = new JobTrace
    val spanOut = args.spans.filter(_ => args.trace).map { p =>
      new File(p).getAbsoluteFile.getParentFile.mkdirs()
      new PrintWriter(p, "UTF-8")
    }
    var attempted = 0
    var failed = 0
    def record(name: String, c: Call): Call = {
      attempted += 1
      if (c.problems.nonEmpty) {
        failed += 1
        c.problems.foreach(p => println(s"FAILED $name: $p"))
      }
      c
    }

    /** A traced call: listener attached, jobs tagged, spans written. */
    def traced(name: String): (Call, Map[String, Double]) = {
      sc.setLocalProperty(JobTrace.CallProperty, name)
      sc.addSparkListener(tracer)
      val timer = new Mine.StepTimer
      val gc0 = gcSeconds()
      val startMs = System.currentTimeMillis()
      val c = record(name, explain(w, db, gate, timer))
      val gcS = gcSeconds() - gc0
      ListenerDrain(sc)
      sc.removeSparkListener(tracer)
      sc.setLocalProperty(JobTrace.CallProperty, null)
      val jobs = tracer.take(name)
      System.gc()
      val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
      spanOut.foreach(out => spans(name, startMs, c.wall, timer, jobs).foreach(out.println))
      val values = c.result.map(r => layerValues(c.wall, timer, r, jobs, ptRows, gcS, heapMb)).getOrElse(Map.empty)
      (c, values)
    }

    val (firstCall, firstValues) =
      if (args.trace) traced("first") else (record("first", explain(w, db, gate, new Mine.StepTimer)), Map.empty[String, Double])
    val top3 = firstCall.result.map(_.topExplanations(TopK)).getOrElse(Nil)
    top3.zipWithIndex.foreach { case (e, i) => println(s"  top${i + 1}: ${e.render}  [${e.jg.describe}]") }

    // Unmeasured warm-up calls, then the measured warm calls: a fixed number,
    // and more while the run's time lasts.
    val warmups = (1 to w.warmupCalls).map(i => record(s"warmup$i", explain(w, db, gate, new Mine.StepTimer)))
    val warm = scala.collection.mutable.ArrayBuffer.empty[Call]
    val warmTraced = scala.collection.mutable.ArrayBuffer.empty[Map[String, Double]]
    val warmUntraced = scala.collection.mutable.ArrayBuffer.empty[Double]
    val needed = if (args.trace) math.max(2, w.measuredCalls) else w.measuredCalls
    val loopStart = now()
    while (secondsSince(loopStart) < args.seconds || warm.size < needed) {
      val i = warm.size
      if (args.trace && i % 2 == 0) {
        val (c, values) = traced(s"warm$i")
        warm += c
        if (values.nonEmpty) warmTraced += values
      } else {
        val c = record(s"warm$i", explain(w, db, gate, new Mine.StepTimer))
        warm += c
        if (c.result.isDefined) warmUntraced += c.wall
      }
    }
    spanOut.foreach(_.close())

    val ok = warm.filter(_.problems.isEmpty)
    val values: Map[String, Double] =
      if (!args.trace) Map(
        "setup_s" -> median(setupTimes),
        "explain_s" -> (if (ok.isEmpty) Double.NaN else median(ok.map(_.wall).toSeq)),
        "top3_fscore" -> (if (top3.isEmpty) Double.NaN else top3.map(_.fscore).sum / top3.size),
      )
      else {
        val perCall = warmTraced.headOption.map(_.keys.map(n => n -> median(warmTraced.map(_(n)).toSeq)).toMap)
        perCall.fold(Map.empty[String, Double]) { m =>
          m ++ Map(
            "trace.overhead_s" ->
              (if (warmUntraced.isEmpty) Double.NaN else m("trace.explain_s") - median(warmUntraced.toSeq)),
            "first_explain.s" -> firstCall.wall,
            "first_explain.jobs" -> firstValues.getOrElse("spark.jobs", Double.NaN),
          )
        }
      }

    spark.stop()
    val failedOps = failed.toDouble / attempted
    println(s"setup runs (s): ${setupTimes.map(t => f"$t%.3f").mkString(" ")}")
    println(f"first explain call (s): ${firstCall.wall}%.3f")
    println(s"warm-up explain calls (s): ${warmups.map(c => f"${c.wall}%.3f").mkString(" ")}")
    println(s"measured warm explain calls: ${warm.size} (s: ${warm.map(c => f"${c.wall}%.3f").mkString(" ")})")
    val complete = Report.metricsFor(args.trace).forall(m => values.get(m.name).exists(v => !v.isNaN))
    if (!complete) {
      println(s"ExplainBench: no successful explain call to measure ($failed of $attempted failed)")
      sys.exit(1)
    }
    Report.table(args.trace, values).foreach(println)
    println(f"  ${"failed_ops"}%-22s $failedOps%14.6f ratio ($failed of $attempted explain calls)")
    println(Report.json(failed == 0, attempted, failed, args.trace, values))
  }
}
