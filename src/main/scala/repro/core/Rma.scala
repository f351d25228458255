package repro.core

import org.apache.spark.sql.DataFrame

import repro.matrix.{BreezeBackend, ColMatrix, Kernels, MatrixBackend}

/** Execution configuration for relational matrix operations.
  *
  * @param backend physical kernel backend for base results. [[BreezeBackend]]
  *                is the RMA+MKL analog (copy + library call),
  *                [[Kernels]] the RMA+BAT analog (no-copy column
  *                kernels). Mirrors the paper's policy of choosing per query.
  * @param distributedElementwise run add/sub/emu fully distributed through
  *                Catalyst (sort → global rank → rank join → column
  *                arithmetic), the analog of MonetDB executing linear ops
  *                directly on BATs. When false they use the collect path.
  * @param validateKeys check that order schemas are keys (paper §4 requires
  *                it; benches may switch the check off, like any DBMS
  *                trusting declared keys).
  */
final case class RmaConfig(
    backend: MatrixBackend = BreezeBackend,
    distributedElementwise: Boolean = true,
    validateKeys: Boolean = true)

object RmaConfig {
  val default: RmaConfig = RmaConfig()
  val bat: RmaConfig = RmaConfig(backend = Kernels)
}

/** The relational matrix algebra (paper Section 4, Table 2).
  *
  * Every operation takes relation(s) as DataFrames plus one order schema per
  * argument and returns a relation (DataFrame) — the algebra is closed. The
  * result carries the base result of the corresponding matrix operation plus
  * contextual information (row and column origins) per the op's shape type.
  * The operations themselves are the entries of the catalogue [[RmaOp]];
  * [[apply]] evaluates any of them.
  *
  * Unary ops: `op(r, U)`; binary ops: `op(r, U, s, V)` — the SQL surface
  * `SELECT * FROM OP(r BY U, s BY V)` is provided by [[RmaSql]].
  */
object Rma {
  import Constructors._
  import Dim._

  /** Evaluate `op` on its arguments, each a relation with its order schema.
    *
    * Element-wise ops run distributed when `cfg.distributedElementwise` is
    * set. Every other call splits each argument into order part and
    * application matrix, checks the op's preconditions, runs the kernel and
    * builds the result relation from the shape type alone (paper Table 3):
    * rows R1 keep r's order part, r* both order parts, C1 the schema cast of
    * r's application schema, 1 the op name; columns C1/C* are r's
    * application names, C2 s's, R1/R2 the column cast of r or s, 1 the op
    * name.
    */
  def apply(op: RmaOp, cfg: RmaConfig, args: (DataFrame, Seq[String])*): DataFrame = {
    require(args.length == op.arity,
      s"${op.name} takes ${if (op.arity == 1) "one argument" else "two arguments"}, got ${args.length}")
    op.combine match {
      case Some(combine) if cfg.distributedElementwise =>
        val Seq((r, u), (s, v)) = args
        elementwiseDistributed(r, u, s, v, combine, cfg.validateKeys)
      case _ =>
        val sp = args.map { case (df, order) => collectSplit(df, order, cfg.validateKeys) }.toIndexedSeq
        op.checks.foreach(_(op.name, sp))
        val base = op.base(cfg.backend, sp.map(_.matrix))
        val names = op.shape.cols match {
          case C1 | CStar => sp(0).appCols
          case C2         => sp(1).appCols
          case R1         => sp(0).columnCast
          case R2         => sp(1).columnCast
          case One        => Seq(op.name)
          case RStar      => throw new IllegalStateException(s"${op.name}: r* is not a column dimension")
        }
        val spark = args.head._1.sparkSession
        op.shape.rows match {
          case R1    => withOrderPart(spark, sp(0).orderFields, sp(0).orderRows, base, names)
          case RStar => withTwoOrderParts(spark, sp(0).orderFields, sp(0).orderRows,
                          sp(1).orderFields, sp(1).orderRows, base, names)
          case C1    => withSchemaCast(spark, sp(0).appCols, base, names)
          case One   => withSchemaCast(spark, Seq(op.name), base, names)
          case d     => throw new IllegalStateException(s"${op.name}: $d is not a row dimension")
        }
    }
  }

  /** Matrix inversion of the application part (shape (r1,c1)). */
  def inv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Inv, cfg, r -> u)

  /** Eigenvectors (symmetric application part; shape (r1,c1)). */
  def evc(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Evc, cfg, r -> u)

  /** Cholesky factor R with A = RᵀR (shape (r1,c1)). */
  def chf(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Chf, cfg, r -> u)

  /** Q factor of the QR decomposition (shape (r1,c1)). */
  def qqr(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Qqr, cfg, r -> u)

  /** Full left SVD factor (shape (r1,r1)); result columns are named by the
    * sorted key values (column cast ∇U), so |U| must be 1.
    */
  def usv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Usv, cfg, r -> u)

  /** Eigenvalues, descending (symmetric application part; shape (r1,1)). */
  def evl(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Evl, cfg, r -> u)

  /** Transpose (shape (c1,r1)): rows are the application attributes (new
    * attribute C), columns are named by the sorted key values (∇U, |U|=1).
    */
  def tra(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Tra, cfg, r -> u)

  /** R factor of the QR decomposition (shape (c1,c1)). */
  def rqr(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Rqr, cfg, r -> u)

  /** Diagonal matrix of singular values, descending (shape (c1,c1)). */
  def dsv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Dsv, cfg, r -> u)

  /** Right singular vectors V (shape (c1,c1) — see DESIGN.md §3 on the
    * paper's Table 1 typo for vsv).
    */
  def vsv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Vsv, cfg, r -> u)

  /** Determinant (shape (1,1)). */
  def det(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Det, cfg, r -> u)

  /** Numerical rank (shape (1,1)). */
  def rnk(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Rnk, cfg, r -> u)

  /** Matrix multiplication (shape (r1,c2)): schema U ∘ V̄. The application
    * part of `r` must have as many columns as `s` has rows.
    */
  def mmu(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Mmu, cfg, r -> u, s -> v)

  /** Outer product a·bᵀ (shape (r1,r2)): schema U ∘ ∇V, so |V| must be 1. */
  def opd(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Opd, cfg, r -> u, s -> v)

  /** Cross product aᵀ·b (shape (c1,c2)): schema (C) ∘ V̄. */
  def cpd(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Cpd, cfg, r -> u, s -> v)

  /** Solve a·x = b, least squares when rectangular (shape (c1,c2)):
    * schema (C) ∘ V̄.
    */
  def sol(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Sol, cfg, r -> u, s -> v)

  /** Element-wise addition (shape (r*,c*)): schema U ∘ V ∘ Ū. */
  def add(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Add, cfg, r -> u, s -> v)

  /** Element-wise subtraction (shape (r*,c*)). */
  def sub(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Sub, cfg, r -> u, s -> v)

  /** Element-wise multiplication (shape (r*,c*)). */
  def emu(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame =
    apply(RmaOp.Emu, cfg, r -> u, s -> v)

  /** Reducibility helper (paper Definition 6.1): the application part of `df`
    * sorted by `order` as a matrix. Used by matrix-consistency tests.
    */
  def reduce(df: DataFrame, order: Seq[String]): ColMatrix =
    Constructors.reduce(df, order)
}
