package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, when}
import repro.SparkSpec
import repro.core.Pattern._
import repro.ml.LocalSample

/** Unit tests for summarization patterns (Definition 5) and the diversity
  * score of Section 3.5.
  */
class PatternSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    ("a", 1.0, "x"), ("a", 5.0, "y"), ("b", 3.0, "x"), ("b", 7.0, "y"), ("c", 9.0, "x"),
  ).toDF("cat", "num", "tag").cache()

  /** Rows of `frame` that `p` matches, over the frame's rows in the driver
    * encoding. The wildcard import brings the inner Pattern case class into
    * scope, hence the qualified type.
    */
  private def matchCount(p: repro.core.Pattern.Pattern, frame: DataFrame = df): Long = {
    val attrs = LocalSample.attrsOf(frame, frame.columns.toSeq)
    val cols = p.columnsIn(frame.columns.toSeq)
    frame.collect().count(r => p.matches(LocalSample.encode(r, attrs), cols)).toLong
  }

  test("empty pattern matches every tuple") { assert(matchCount(Pattern.empty) == 5) }
  test("categorical equality matches exactly") {
    assert(matchCount(Pattern.of(Pred("cat", OpEq, CatV("a")))) == 2)
  }
  test("categorical equality on absent constant matches nothing") {
    assert(matchCount(Pattern.of(Pred("cat", OpEq, CatV("zz")))) == 0)
  }
  test("numeric <= threshold is inclusive") {
    assert(matchCount(Pattern.of(Pred("num", OpLe, NumV(3.0)))) == 2)
  }
  test("numeric >= threshold is inclusive") {
    assert(matchCount(Pattern.of(Pred("num", OpGe, NumV(7.0)))) == 2)
  }
  test("numeric equality supported per Definition 5") {
    assert(matchCount(Pattern.of(Pred("num", OpEq, NumV(9.0)))) == 1)
  }
  test("conjunction semantics: all predicates must hold") {
    val p = Pattern.of(Pred("cat", OpEq, CatV("a")), Pred("num", OpGe, NumV(2.0)))
    assert(matchCount(p) == 1)
  }
  test("three-predicate conjunction") {
    val p = Pattern.of(Pred("cat", OpEq, CatV("b")), Pred("num", OpLe, NumV(7.0)), Pred("tag", OpEq, CatV("y")))
    assert(matchCount(p) == 1)
  }

  test("one predicate per attribute is enforced") {
    intercept[IllegalArgumentException] {
      Pattern(Vector(Pred("a", OpEq, CatV("x")), Pred("a", OpEq, CatV("y"))))
    }
  }
  test("refinement adds a predicate on a fresh attribute") {
    val p = Pattern.of(Pred("cat", OpEq, CatV("a")))
    val r = p.refined(Pred("num", OpLe, NumV(1.0)))
    assert(r.size == 2 && r.attrs == Set("cat", "num"))
  }
  test("refinement on a bound attribute is rejected") {
    val p = Pattern.of(Pred("cat", OpEq, CatV("a")))
    intercept[IllegalArgumentException] { p.refined(Pred("cat", OpEq, CatV("b"))) }
  }
  test("patterns are order-insensitive (sorted by attribute)") {
    val p1 = Pattern.of(Pred("b", OpEq, CatV("1")), Pred("a", OpEq, CatV("2")))
    val p2 = Pattern.of(Pred("a", OpEq, CatV("2")), Pred("b", OpEq, CatV("1")))
    assert(p1 == p2)
  }
  test("numeric refinement count bookkeeping") {
    val p = Pattern.of(Pred("cat", OpEq, CatV("a")), Pred("num", OpLe, NumV(2.0)))
    assert(p.numericPredCount == 1)
  }
  test("render omits * attributes and shows operators") {
    val p = Pattern.of(Pred("num", OpGe, NumV(23)))
    assert(p.render == "num>=23")
    assert(Pattern.empty.render == "(*)")
  }

  // Diversity score D(Φ, Φ′): +1 absent, −0.3 different constant, −2 same.
  test("diversity: disjoint attributes score +1 per attribute") {
    val p = Pattern.of(Pred("a", OpEq, CatV("1")), Pred("b", OpEq, CatV("2")))
    val q = Pattern.of(Pred("c", OpEq, CatV("3")))
    assert(math.abs(diversity(p, q) - 1.0) < 1e-9)
  }
  test("diversity: same attribute different constant scores -0.3") {
    val p = Pattern.of(Pred("a", OpEq, CatV("1")))
    val q = Pattern.of(Pred("a", OpEq, CatV("2")))
    assert(math.abs(diversity(p, q) - (-0.3)) < 1e-9)
  }
  test("diversity: identical predicate scores -2") {
    val p = Pattern.of(Pred("a", OpEq, CatV("1")))
    assert(math.abs(diversity(p, p) - (-2.0)) < 1e-9)
  }
  test("diversity: mixed case averages per Section 3.5 formula") {
    val p = Pattern.of(Pred("a", OpEq, CatV("1")), Pred("b", OpEq, CatV("2")))
    val q = Pattern.of(Pred("a", OpEq, CatV("1")), Pred("c", OpEq, CatV("3")))
    // a: same constant (-2), b: absent (+1) → (-2 + 1)/2
    assert(math.abs(diversity(p, q) - (-0.5)) < 1e-9)
  }
  test("diversity of the empty pattern is 0") {
    assert(diversity(Pattern.empty, Pattern.of(Pred("a", OpEq, CatV("1")))) == 0.0)
  }
  test("wscore with empty selection is the F-score") {
    assert(wscore(0.7, Pattern.of(Pred("a", OpEq, CatV("1"))), Nil) == 0.7)
  }
  test("wscore penalizes the closest selected pattern") {
    val p = Pattern.of(Pred("a", OpEq, CatV("1")))
    val sel = Seq(Pattern.of(Pred("a", OpEq, CatV("1"))), Pattern.of(Pred("z", OpEq, CatV("9"))))
    // min over selected: min(-2, +1) = -2
    assert(math.abs(wscore(0.9, p, sel) - (0.9 - 2.0)) < 1e-9)
  }

  test("pattern columns resolve against real APT-style frames") {
    val named = df.withColumnRenamed("cat", "a1_cat")
    val p = Pattern.of(Pred("a1_cat", OpEq, CatV("a")))
    assert(matchCount(p, named) == 2)
  }
  test("null attribute values never match any predicate") {
    val withNull = df.withColumn("cat2", when(col("cat") === "a", col("cat")))
    assert(matchCount(Pattern.of(Pred("cat2", OpEq, CatV("b"))), withNull) == 0)
  }
  test("a null numeric value matches no numeric predicate") {
    val withNull = df.withColumn("num2", when(col("num") > 4.0, col("num")))
    assert(matchCount(Pattern.of(Pred("num2", OpLe, NumV(100.0))), withNull) == 3)
    assert(matchCount(Pattern.of(Pred("num2", OpGe, NumV(-100.0))), withNull) == 3)
  }
  test("a categorical constant never equals a numeric value") {
    assert(!Pred("num", OpEq, CatV("1.0")).matches(Double.box(1.0)))
    intercept[IllegalArgumentException] { Pred("cat", OpLe, CatV("a")) }
  }
}
